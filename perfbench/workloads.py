"""The benchmark's three workloads: which points each one runs, and why.

Every point uses the quick problem sizes, 64 processors, flat Table-1
latencies and fully-associative caches (the ``MachineConfig`` defaults),
with the workload seed forwarded as the applications' ``seed`` kwarg.

``capacity-sweep``
    The paper's Figs. 4-8 capacity grid for the six stream-invariant
    codes.  One capture per app serves all 16 of its points, and every
    point replays in the native C kernel: the kernel does most of the
    work here.
``dynamic-sweep``
    The three task-queue codes (paper section 3) whose reference stream
    depends on timing.  Every point re-records through python generators
    and the python memory model: the kernel does none of the work here.
``served-study``
    A protocol x cluster study served by a ``serve`` daemon to two
    closed-loop clients that send the same list, in the same order, three
    times.  Pass 1 executes each point once and coalesces its twin
    request; passes 2-3 are result-cache hits.  Snoopy and DLS points
    replay in python, which native declines.  FFT and radix are left
    out: their python snoopy/DLS replays took three quarters of a plan,
    leaving a 30 s run too few plans to take per-request minima over.
"""

from __future__ import annotations

from typing import Any

CLUSTER_SIZES = (1, 2, 4, 8)
DEFAULT_SEED = 12345

CAPACITY_APPS = ("lu", "fft", "ocean", "fmm", "radix", "mp3d")
CAPACITY_CACHES = (4.0, 16.0, 32.0, None)
DYNAMIC_APPS = ("barnes", "raytrace", "volrend")
DYNAMIC_CACHES = (4.0, None)
SERVED_APPS = ("ocean", "lu")
SERVED_PROTOCOLS = ("directory", "snoopy", "dls")
SERVED_CLIENTS = 2
SERVED_PASSES = 3

#: the ROADMAP's 36-point sweep: every app at 4 KB x cluster sizes, in
#: app-major order, result JSONs newline-joined
SWEEP_ORDER = ("lu", "fft", "ocean", "barnes", "fmm", "radix", "raytrace",
               "volrend", "mp3d")
SWEEP_SHA256 = ("3dad07e1aad55bc6fd5ba1e01f314a68dd4dd399806fbef57e8a1921"
                "7bb81798")

WORKLOADS = ("capacity-sweep", "dynamic-sweep", "served-study")


def app_kwargs(app: str, seed: int) -> dict[str, Any]:
    """Quick problem size for ``app`` with the workload seed applied."""
    from repro.apps.registry import QUICK_PROBLEM_SIZES

    return {**QUICK_PROBLEM_SIZES[app], "seed": seed}


def requests(workload: str, seed: int) -> list:
    """The distinct points of ``workload``, in the order they run."""
    from repro.runtime import RunRequest

    if workload == "capacity-sweep":
        grid = [(a, None, c) for a in CAPACITY_APPS for c in CAPACITY_CACHES]
    elif workload == "dynamic-sweep":
        grid = [(a, None, c) for a in DYNAMIC_APPS for c in DYNAMIC_CACHES]
    elif workload == "served-study":
        grid = [(a, p, 4.0) for a in SERVED_APPS for p in SERVED_PROTOCOLS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [RunRequest.make(app, cs, cache, app_kwargs(app, seed),
                            protocol=protocol)
            for app, protocol, cache in grid for cs in CLUSTER_SIZES]


def sweep_sha_requests() -> list:
    """The 36 points behind :data:`SWEEP_SHA256`, in hashing order."""
    from repro.runtime import RunRequest

    return [RunRequest.make(app, cs, 4.0, app_kwargs(app, DEFAULT_SEED))
            for app in SWEEP_ORDER for cs in CLUSTER_SIZES]


def label(request) -> str:
    """Stable human-readable name of one point (digest-table key)."""
    cache = "inf" if request.cache_kb is None else f"{request.cache_kb:g}k"
    protocol = request.protocol or "directory"
    return f"{request.app}/{protocol}/{cache}/c{request.cluster_size}"
