"""How fast this CPU runs right now, from a fixed pure-Python workload.

On a shared host the speed of a virtual CPU swings by up to 2x for
seconds to minutes (the other tenants' load), and CPU time swings with
it, so a cost measured in CPU seconds alone is not comparable between
runs.  The runner pins itself and everything it starts to one CPU, runs
this probe in a thread every ``INTERVAL_S`` for the whole run, and
scales the CPU time of a piece of work by the mean probe time over the
same interval:

    scaled_ms = work_cpu_s * 1000 * NOMINAL_S / probe_mean_s

which reads as milliseconds on a CPU where the probe takes ``NOMINAL_S``.

One probe unit has two parts.  The first parses a fixed form page with
``html.parser``, tokenises, strips suffixes and counts words in a small
dict; it stays in the core's caches and slows down more than the
program does when the host is busy.  The second parses one of many
pages and looks words up in a dict of several megabytes, as the
program's vocabularies and memos do; it slows down less.  With the
first taking a little over half the unit's time, the scaled figures of
both workloads came out 2-7% apart (coefficient of variation) over 30
runs while their raw CPU times varied 12-21%, on a 2-vCPU guest of an
Intel Xeon host; either part alone did up to twice as badly.  The probe
touches nothing of ``repro``, so no change to the program moves it.
"""

import random
import re
import statistics
import threading
import time
from html.parser import HTMLParser

#: The probe's CPU time on the host the benchmark was defined on, in a
#: quiet period; it only sets the scale of the scaled metrics.
NOMINAL_S = 0.006

#: Seconds between two probe units.
INTERVAL_S = 0.08

_WORDS = (
    "search", "form", "database", "hidden", "query", "book", "author",
    "title", "price", "airfare", "departure", "arrival", "hotel", "rental",
    "movie", "music", "album", "artist", "job", "salary", "location",
    "keyword", "category", "submit", "select", "option", "input", "label",
)
_PAGE = "<html><body><form action='/q' method='get'>" + "".join(
    f"<p class='row'><label for='f{i}'>{_WORDS[i % 28].title()}ing "
    f"{_WORDS[(i * 7) % 28]}s</label><input type='text' name='f{i}'>"
    f"<select name='s{i}'><option value='{i}'>{_WORDS[(i * 3) % 28]}ed</option>"
    "</select></p>"
    for i in range(100)
) + "</form></body></html>"
_TOKEN = re.compile(r"[A-Za-z]+")
_SUFFIXES = ("ings", "ing", "es", "s", "ed")

_rng = random.Random("perfbench.probe")
_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "te", "vo", "zi", "pa",
              "qu", "re", "do", "fi", "gu")
_VOCAB = ["".join(_rng.choice(_SYLLABLES) for _ in range(_rng.randint(2, 5)))
          for _ in range(60000)]
_INDEX = {word: i for i, word in enumerate(_VOCAB)}
_PAGES = [
    "<html><body><form>" + "".join(
        f"<p><label>{' '.join(_rng.choice(_VOCAB) for _ in range(6))}</label>"
        f"<input name='x{i}'></p>"
        for i in range(30)
    ) + "</form></body></html>"
    for _ in range(64)
]


class _Text(HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.chunks = []
        self.fields = 0

    def handle_starttag(self, tag, attrs) -> None:
        if tag in ("input", "select"):
            self.fields += len(attrs)

    def handle_data(self, data) -> None:
        self.chunks.append(data)


def _text(page: str) -> _Text:
    parser = _Text()
    parser.feed(page)
    parser.close()
    return parser


def _in_cache() -> float:
    parser = _text(_PAGE)
    counts = {}
    for token in _TOKEN.findall(" ".join(parser.chunks)):
        word = token.lower()
        for suffix in _SUFFIXES:
            if word.endswith(suffix) and len(word) > len(suffix) + 2:
                word = word[: -len(suffix)]
                break
        counts[word] = counts.get(word, 0) + 1
    weights = {term: 1.0 + n / 10.0 for term, n in counts.items()}
    return sum(weights[term] * n for term, n in counts.items()) + parser.fields


def _in_memory(turn: int) -> int:
    parser = _text(_PAGES[turn % len(_PAGES)])
    total = parser.fields
    for token in _TOKEN.findall(" ".join(parser.chunks)):
        total += _INDEX.get(token, 0)
    n = len(_VOCAB)
    for i in range(turn % 7, n, 11):
        total += _INDEX[_VOCAB[(i * 7919) % n]]
    return total


def probe_s(turn: int = 0) -> float:
    """CPU seconds this thread spends on one fixed unit of probe work."""
    started = time.thread_time()
    _in_cache()
    _in_memory(turn)
    return time.thread_time() - started


class Sampler:
    """A thread that runs the probe every ``INTERVAL_S`` until stopped,
    keeping each sample with the ``time.perf_counter()`` it ended at.
    That clock is the system's monotonic clock, so intervals reported by
    other processes on the host can be matched against it."""

    def __init__(self) -> None:
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(INTERVAL_S):
            took = probe_s(turn)
            self.samples.append((time.perf_counter(), took))
            turn += 1

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_s(self, start: float, end: float) -> float:
        """The mean probe time over ``[start, end]``, leaving out the
        fastest and slowest tenth; the nearest sample when the interval
        holds none."""
        inside = sorted(took for at, took in self.samples if start <= at <= end)
        if not inside:
            if not self.samples:
                raise ValueError("the sampler has taken no samples")
            middle = (start + end) / 2.0
            return min(self.samples, key=lambda s: abs(s[0] - middle))[1]
        cut = len(inside) // 10
        return statistics.fmean(inside[cut:len(inside) - cut])


def scaled_ms(cpu_s: float, probe_mean_s: float) -> float:
    """``cpu_s`` as milliseconds on a CPU where the probe takes ``NOMINAL_S``."""
    return cpu_s * 1000.0 * NOMINAL_S / probe_mean_s
