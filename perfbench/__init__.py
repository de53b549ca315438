"""The repository benchmark: four CONGEST-simulator workloads measured end
to end and layer by layer.  Run ``python3 perfbench/run.py --help``."""
