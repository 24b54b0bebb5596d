import gc
import sys

from .cli import main

code = main()
# Spare the exit its full collections over every object the imports made.
gc.freeze()
sys.exit(code)
