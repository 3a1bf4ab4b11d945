"""Proof gates: internal checks of the certificate that every layer shares."""


class ProofGateError(AssertionError):
    """An internal check of the certificate failed.  Raised explicitly, so
    the check also runs under ``python -O``."""


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise ProofGateError(message)
