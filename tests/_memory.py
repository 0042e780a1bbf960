"""Peak memory of one call, as tracemalloc sees it; numpy reports its array
buffers there."""

import tracemalloc


def peak_above_inputs(call):
    """(peak bytes allocated while call() ran, above what was held before it;
    its result). The result is in the peak, the inputs are not."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()
