"""Names of the seven SPECjvm98 stand-ins (paper Table 3).

The CLI's argument choices and the exhibits' row labels need the names
without building a benchmark, so they live apart from the generators in
:mod:`repro.workloads.specjvm`, which re-exports them.
"""

from typing import Dict, Tuple

#: Paper Table 3 descriptions.
SPECJVM_DESCRIPTIONS: Dict[str, str] = {
    "compress": "A popular LZW compression program.",
    "db": "Data management benchmarking software written by IBM.",
    "jack": "A real parser-generator from Sun Microsystems.",
    "javac": "The JDK 1.0.2 Java compiler.",
    "jess": "A Java version of NASA's popular CLIPS rule-based expert "
            "systems.",
    "mpegaudio": "The core algorithm for software that decodes an MPEG-3 "
                 "audio stream.",
    "mtrt": "A dual-threaded program that ray traces an image file.",
}

BENCHMARK_NAMES: Tuple[str, ...] = tuple(SPECJVM_DESCRIPTIONS)

#: Short names as the paper's tables print them.
SHORT_NAMES: Dict[str, str] = {
    "compress": "comp",
    "db": "db",
    "jack": "jack",
    "javac": "javac",
    "jess": "jess",
    "mpegaudio": "mpeg",
    "mtrt": "mtrt",
}
