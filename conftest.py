"""Session set-up shared by every test directory.

Collection leaves tens of thousands of long-lived objects (test items,
parameter sets, imported modules). Left in the collector's oldest
generation, each full collection rescans them and pauses for 20-30 ms
wherever it lands, including inside timed regions such as the tracer's
self-time check, which counts time spent outside its spans. Freezing them
once collection is done keeps those pauses out of every test.
"""

import gc


def pytest_collection_finish(session):
    gc.collect()
    gc.freeze()
