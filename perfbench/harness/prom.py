"""Parsing of the daemon's Prometheus text exposition (GET /metrics)."""


def parse(text):
    """Samples of an exposition as ``{(name, labels): value}``, where labels
    is a sorted tuple of (key, value) pairs. Comments and blank lines are
    skipped; a malformed sample line raises ValueError."""
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        if not head:
            raise ValueError("metric line without a value: %r" % line)
        name, labels = head, ()
        if "{" in head:
            if not head.endswith("}"):
                raise ValueError("unterminated label set: %r" % line)
            name, _, body = head[:-1].partition("{")
            pairs = []
            for item in _split_labels(body):
                key, eq, raw = item.partition("=")
                if not eq or len(raw) < 2 or raw[0] != '"' or raw[-1] != '"':
                    raise ValueError("bad label %r in %r" % (item, line))
                pairs.append((key.strip(), raw[1:-1]))
            labels = tuple(sorted(pairs))
        samples[(name, labels)] = float(value)
    return samples


def _split_labels(body):
    items, current, quoted = [], [], False
    for char in body:
        if char == '"':
            quoted = not quoted
        if char == "," and not quoted:
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    if "".join(current).strip():
        items.append("".join(current))
    return items


def diff(before, after):
    """after - before for every sample present after (absent before = 0)."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def total(samples, name, **labels):
    """Sum of the samples of ``name`` whose labels include ``labels``."""
    wanted = set(labels.items())
    return sum(value for (sample, sample_labels), value in samples.items()
               if sample == name and wanted <= set(sample_labels))
