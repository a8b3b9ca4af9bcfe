"""Independent pairwise conflict test for two X-Y paths.

The allocator keeps conflicts as bitmasks built from shared resources;
this is the plain definition the mask tests and the oracle brute force
check against.
"""


def links_conflict(a, b, endpoint_ports=False):
    """True when two paths cannot share one circuit-switched subnet.

    Sharing any directed link is always a conflict.  With endpoint_ports
    set (router-granularity circuits) a shared source router or a shared
    destination router also conflicts, because each router exposes a
    single injection and a single ejection port per CS subnet.
    """
    if set(a.links) & set(b.links):
        return True
    return endpoint_ports and (a.src_router == b.src_router or a.dst_router == b.dst_router)
