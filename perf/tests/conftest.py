import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(PERF), "src"))
sys.path.insert(0, PERF)
