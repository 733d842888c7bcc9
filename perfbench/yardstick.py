"""Host speed, measured beside the program with fixed reference kernels.

The benchmark runs on shared hosts whose CPUs run the same fixed work 1.2 to
1.5 times slower for stretches that last from a second to many minutes, and
raw timings of identical code moved by up to 40% between runs.  So every time
the workloads report is scaled to a reference host speed:

    scaled = seconds * NOMINAL_S[kind] / (kernel ``kind``'s time around it)

Each kernel is fixed pure-stdlib work run with the garbage collector off, so
neither the program nor the size of its heap can change its cost: only the
host can.  A scaled time is the time the operation would have taken on a
host where the kernel takes its nominal time; a change to the program moves
it exactly as much as it moves the raw time.  There are two kernels, because
the host slows different work differently:

* ``compute`` builds 2,000 small dicts and encodes them as JSON, like
  evaluating and serializing a query; it scales query times and set-up;
* ``copy`` copies a 60,000-entry dict and lists its values, like the
  copy-on-write generation an update publishes; it scales write times.

Two ways to take samples:

* :class:`Bracket`, in process, right before and after each timed call of a
  single-threaded client (the catalog sweeps and in-process writes): the
  samples run on the same CPU, just before and after the call;
* :class:`Sampler`, a child process sampling every ``interval`` seconds while
  a served workload runs; an operation is scaled by the median of the samples
  within ``window`` seconds of it, since the server's threads and the client
  run on any CPU and a kernel run in the client would delay its requests.
"""

import bisect
import gc
import json
import subprocess
import sys
import threading
import time

#: Each kernel's nominal time: about its median on the host the benchmark
#: was defined on (2-core shared host, CPython 3.11).  Fixed, never re-measured.
NOMINAL_S = {"compute": 0.004, "copy": 0.004}


class Kernels:
    """The reference kernels; owns the table the ``copy`` kernel copies."""

    def __init__(self):
        self._table = {i: (i, str(i)) for i in range(60_000)}

    @staticmethod
    def compute():
        rows = [{"s": "http://perfbench.invalid/%d" % i, "o": i * 3} for i in range(2000)]
        return len(json.dumps(rows))

    def copy(self):
        return len(list(dict(self._table).values()))

    def sample(self):
        """``{kind: seconds}`` of one run of each kernel, here and now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = {}
            for kind in NOMINAL_S:
                started = time.perf_counter()
                getattr(self, kind)()
                times[kind] = time.perf_counter() - started
            return times
        finally:
            if enabled:
                gc.enable()


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Bracket:
    """Times calls in process, each bracketed by kernel samples.

    ``timed(call, kind)`` returns ``(result, raw seconds, scaled seconds)``;
    the scale is the mean of kernel ``kind``'s sample taken right before the
    call and the one right after it (which is also the next call's sample
    before).
    """

    def __init__(self):
        self.kernels = Kernels()
        self.samples = []
        self._last = None

    def timed(self, call, kind="compute"):
        before = self._last or self.kernels.sample()
        started = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - started
        self._last = self.kernels.sample()
        self.samples += [before, self._last]
        reference = (before[kind] + self._last[kind]) / 2
        return result, seconds, seconds * NOMINAL_S[kind] / reference

    def reset(self):
        """Forget the last sample: the next call is not adjacent to it."""
        self._last = None

    def median_ms(self, kind):
        return 1e3 * median([sample[kind] for sample in self.samples])


class Sampler:
    """A child process running the kernels every ``interval`` s until stopped.

    Use as a context manager; :meth:`scaled` works after the block has ended.
    The child also exits when this process dies, because its standard input
    closes.
    """

    def __init__(self, interval=0.1, window=0.5):
        self.interval, self.window = interval, window
        self.starts, self.samples = [], []
        self.process = None

    def __enter__(self):
        self.process = subprocess.Popen(
            [sys.executable, __file__, str(self.interval)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __exit__(self, kind, *_):
        try:
            out, _ = self.process.communicate(timeout=30)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        if kind is None:
            if self.process.returncode != 0:
                raise RuntimeError(f"yardstick exited with {self.process.returncode}")
            for started, sample in json.loads(out):
                self.starts.append(started)
                self.samples.append(sample)
            if not self.samples:
                raise RuntimeError("yardstick took no samples")
        return False

    def reference_s(self, start, end, kind):
        """Kernel ``kind``'s median time within ``window`` s of ``[start, end]``."""
        low = bisect.bisect_left(self.starts, start - self.window)
        high = bisect.bisect_right(self.starts, end + self.window)
        if low == high:
            # None that close: the nearest one.
            index = min(low, len(self.starts) - 1)
            if index > 0 and start - self.starts[index - 1] < self.starts[index] - end:
                index -= 1
            return self.samples[index][kind]
        return median([sample[kind] for sample in self.samples[low:high]])

    def scaled(self, seconds, start, end=None, kind="compute"):
        """``seconds`` (spent over ``[start, end]``) at the nominal host speed."""
        end = start + seconds if end is None else end
        return seconds * NOMINAL_S[kind] / self.reference_s(start, end, kind)

    def median_ms(self, kind):
        return 1e3 * median([sample[kind] for sample in self.samples])


def _serve(interval):
    """Child: sample until standard input closes, then print the samples."""
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
    kernels = Kernels()
    samples = []
    while not stop.is_set():
        started = time.perf_counter()
        samples.append((started, kernels.sample()))
        stop.wait(interval)
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _serve(float(sys.argv[1]))
