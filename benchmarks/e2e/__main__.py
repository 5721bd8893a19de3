"""``PYTHONPATH=src python -m benchmarks.e2e --seed 7``."""

from benchmarks.e2e.run import main

raise SystemExit(main())
