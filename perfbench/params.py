"""Input sizes shared by the workloads and the set-up probe."""

# Catalog schemes for the codec workloads, with the stream lengths of one
# scale unit.  X1 copies only, so it carries no XOR segment at all.
SCHEMES = (
    ("X5", (1, 1, 3, 1, 1, 1, 1)),
    ("Y5", (1, 1, 2, 1, 2, 1, 1)),
    ("Z7", (1, 1, 1, 3, 1, 1, 1)),
    ("X1", (1, 1, 3, 1, 1, 1, 1)),
)
BULK_SCALE = 10**6   # 9 Mbit per bundle, ~1.3 Mbit per stream
CLI_SCALE = 10**4    # ~13 kbit per stream

# The representative regime-I profile of the ROADMAP baseline table.
REP = (1, 1, 3, 1, 1, 1, 1)
