"""Derandomised mutations of a line-oriented text file, for parser fuzzing.

Every parser of the package must turn each of these into a loaded object or
its own documented format error, never any other exception; model and
report errors must also name their line.
"""

import re

TOKENS = ("x", "-1", "99", "nan", "1.5", "ry:abc", "zz:0")


def mutations(text: str):
    """Yield (label, mutated text): each line cut after each of its tokens,
    each token replaced by each of TOKENS, and each line dropped and
    duplicated."""
    lines = text.splitlines()
    for n, line in enumerate(lines):
        toks = line.split()

        def with_line(new):
            return "\n".join(lines[:n] + new + lines[n + 1:]) + "\n"

        for k in range(len(toks)):
            yield f"line {n + 1} cut to {k} token(s)", with_line([" ".join(toks[:k])])
            for t in TOKENS:
                yield (f"line {n + 1} token {k} -> {t}",
                       with_line([" ".join(toks[:k] + [t] + toks[k + 1:])]))
        yield f"line {n + 1} dropped", with_line([])
        yield f"line {n + 1} duplicated", with_line([line, line])


def escapes(path, load, allowed, prefix=None) -> list:
    """Overwrite the file at ``path`` with each mutation of it and ``load``
    that; return the mutations that raised anything other than ``allowed``,
    or an ``allowed`` error whose message does not start with the regular
    expression ``prefix`` (when given)."""
    out = []
    for label, mutated in mutations(path.read_text()):
        path.write_text(mutated)
        try:
            load(path)
        except allowed as exc:
            if prefix is not None and not re.match(prefix, str(exc)):
                out.append(f"{label}: no location in {exc!r}")
        except Exception as exc:  # any other exception is the finding
            out.append(f"{label}: {exc!r}")
    return out
