"""TX/RX engines and the protocol converter.

"The TX engine and RX engine are responsible for sending data to
ML-MIAOW and getting data from ML-MIAOW, respectively.  The protocol
converter is used to convert the TX/RX data to the protocol required
by ML-MIAOW."

Costs are in RTAD-module (125 MHz) cycles: an AXI write burst has a
fixed handshake setup plus a per-beat cost; these constants put the
write path at ~0.78 us for a 16-word vector, matching Fig. 7's
measured RTAD step (3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import McmError
from repro.ml.features import PatternDictionary


@dataclass(frozen=True)
class TxEngine:
    """Write path: input vector + control registers into the engine."""

    setup_cycles: int = 65
    cycles_per_word: int = 2

    def cycles(self, num_words: int) -> int:
        if num_words < 0:
            raise McmError("negative transfer size")
        return self.setup_cycles + self.cycles_per_word * num_words


@dataclass(frozen=True)
class RxEngine:
    """Read path: result words out of the engine."""

    setup_cycles: int = 20
    cycles_per_word: int = 2

    def cycles(self, num_words: int) -> int:
        if num_words < 0:
            raise McmError("negative transfer size")
        return self.setup_cycles + self.cycles_per_word * num_words


class ProtocolConverter:
    """Converts IGM vectors into each model's engine-level input.

    - ``"lstm"``: the vector is a single mapped branch ID (the VE runs
      with window=1); the converter passes the ID through.
    - ``"elm"``: the vector is an ID window; the converter looks up the
      configured pattern dictionary and emits the n-gram pattern
      indices the kernel gathers weight columns with.
    - ``"mlp"``: the vector is a histogram (the VE's HISTOGRAM mode);
      the converter normalizes the counts to frequencies, the float
      layout the autoencoder kernels consume.
    """

    def __init__(
        self,
        kind: str,
        dictionary: Optional[PatternDictionary] = None,
    ) -> None:
        if kind not in ("elm", "lstm", "mlp"):
            raise McmError(f"unknown model kind {kind!r}")
        if kind == "elm" and dictionary is None:
            raise McmError("ELM protocol conversion needs a dictionary")
        self.kind = kind
        self.dictionary = dictionary

    def convert(self, values: np.ndarray) -> Union[int, np.ndarray]:
        values = np.asarray(values)
        if self.kind == "lstm":
            if values.size != 1:
                raise McmError(
                    "LSTM deployment expects window=1 vectors "
                    f"(got {values.size})"
                )
            return int(values[0])
        if self.kind == "mlp":
            total = float(values.sum())
            if total <= 0:
                raise McmError("empty histogram vector")
            return (values / total).astype(np.float32)
        return self.dictionary.indices(values)

    def words_for(self, converted) -> int:
        """32-bit words the TX engine must move for a converted input."""
        if self.kind == "lstm":
            return 1
        return int(np.asarray(converted).size)
