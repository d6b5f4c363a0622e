"""Golden rows for the generator and Conley-Zehnder tables.

Two entries are forced by the formulas and are easy to get wrong by hand:
CZ_orb(q^8) at (3,4) is 2*floor((7/4 - d)*8) + 1 = 27 (dropping the
infinitesimal inside the floor gives 29 instead), so the last four rows
sort as p^6, q^8, h^2, b^2; and the degree-12 generator of T(3,5) is q^4
(p^4 has degree 20 and appears there with index 36).
"""

# (degree, generator, index) through degree 20 for T(3,4); the published
# table stops mid-degree-class and omits "b p^2" (degree 20, index 46)
TABLE_T34 = [
    (0, "1", 0),
    (3, "q", 2),
    (4, "p", 4),
    (6, "q^2", 6),
    (7, "p q", 8),
    (8, "p^2", 10),
    (9, "q^3", 12),
    (10, "p q^2", 14),
    (11, "p^2 q", 16),
    (12, "q^4", 18),
    (12, "p^3", 18),
    (12, "h", 19),
    (12, "b", 20),
    (13, "p q^3", 22),
    (14, "p^2 q^2", 24),
    (15, "q^5", 26),
    (15, "p^3 q", 26),
    (15, "h q", 27),
    (15, "b q", 28),
    (16, "p q^4", 30),
    (16, "p^4", 30),
    (16, "h p", 31),
    (16, "b p", 32),
    (17, "p^2 q^3", 34),
    (18, "q^6", 36),
    (18, "p^3 q^2", 36),
    (18, "h q^2", 37),
    (18, "b q^2", 38),
    (19, "p q^5", 40),
    (19, "p^4 q", 40),
    (19, "h p q", 41),
    (19, "b p q", 42),
    (20, "p^5", 44),
    (20, "p^2 q^4", 44),
    (20, "h p^2", 45),
]

TABLE_T34_OMITTED = (20, "b p^2", 46)

# (degree, generator, index) through degree 23 for T(3,5); complete
TABLE_T35 = [
    (0, "1", 0),
    (3, "q", 2),
    (5, "p", 4),
    (6, "q^2", 6),
    (8, "p q", 8),
    (9, "q^3", 10),
    (10, "p^2", 12),
    (11, "p q^2", 14),
    (12, "q^4", 16),
    (13, "p^2 q", 18),
    (14, "p q^3", 20),
    (15, "q^5", 22),
    (15, "p^3", 22),
    (15, "h", 23),
    (15, "b", 24),
    (16, "p^2 q^2", 26),
    (17, "p q^4", 28),
    (18, "q^6", 30),
    (18, "p^3 q", 30),
    (18, "h q", 31),
    (18, "b q", 32),
    (19, "p^2 q^3", 34),
    (20, "p q^5", 36),
    (20, "p^4", 36),
    (20, "h p", 37),
    (20, "b p", 38),
    (21, "q^7", 40),
    (21, "p^3 q^2", 40),
    (21, "h q^2", 41),
    (21, "b q^2", 42),
    (22, "p^2 q^4", 44),
    (23, "p q^6", 46),
    (23, "p^4 q", 46),
    (23, "h p q", 47),
    (23, "b p q", 48),
]

# `generators --p 3 --q 4 --max-degree 300 --format csv`: sha256 of the
# output and its number of lines (65,101 generators and the header); the
# digest is also the one bench/digests.json pins for that command
GENERATORS_T34_300_CSV_SHA256 = "022057c5be75eac924fe0ef3d17421047221c7f9a4a4c807fa3a792c999bf0c7"
GENERATORS_T34_300_CSV_LINES = 65102

# `nseq --p 3 --q 4 --k-max 100000 --format csv` and
# `spectrum --p 3 --q 4 --k-max 20000 --format csv`: sha256 of the output and
# its number of lines, recorded while the scans handed _emit cell tuples; the
# two T(1,1) scans were recorded while each Weyl error still went through two
# floor divisions and a divmod rendering
SCAN_CSV_SHA256 = {
    "nseq --p 3 --q 4 --k-max 100000":
        ("c0b86ea3c017455b57d6dab0273b1d5ad86f23a9f900c16ad99feb7724c2ac66", 100002),
    "spectrum --p 3 --q 4 --k-max 20000":
        ("21d47fffa8c457c78ac6c7abf7b5dab664171b128fb23f2c3809750d598e978b", 20002),
    # T(1,1): 9,901 rows with |e_k| >= 1, and -1.000000000000 at k = 2
    "spectrum --p 1 --q 1 --k-max 20000":
        ("ea1df0f4994aeb1e9436d0997fe17e67644fbab0206a6e98e91cb12b2c75e461", 20002),
    "weyl --p 1 --q 1 --k-max 20000 --plot-data":
        ("e83fcce1f32125746208a5208caee70b225c2308646bb73439c2afa7bd8485d1", 20002),
}

# `homology ... --check-d-squared`: sha256 of the output for each of these
# arguments; the first three were recorded while the flag still built the
# whole boundary matrix, the degree-300 window (the benchmark's) while it
# still squared each line's GF(2) block
HOMOLOGY_D2_SHA256 = {
    "--p 3 --q 4 --max-index 160 --max-degree 40 --format json":
        "8b07666cc388a6037f6a142efd963053c359c8a88c562f3a3b15b5d62e273701",
    "--p 3 --q 4 --max-index 160 --max-degree 40 --format table":
        "d6554ac65ef74456b0ed26f0d95e8d3269f49a75de3f6c9b6f24bfaf8d4baba0",
    "--p 2 --q 7 --max-index 60 --format csv":
        "5490a16edd348889d2c0e28521b34494a934d3ef0349b5344b0d0ce222c7e83e",
    "--p 3 --q 4 --max-index 7700 --max-degree 300 --format json":
        "b65c48606ab4036a09ca470c2139719b08efbcfcc9a59f112839f67f3c746be0",
}

# sha256 digests from lattice_path_oracle.py: `vertices` of every admissible
# current of degree <= 60 for (2,3), (3,4), (3,5) and (5,8), and `partition`
# over its fixed grid of theta, m and sign; both were recorded with the
# two-hull `vertices` and the InfRat-floor `partition` they replace
VERTICES_DIGEST = "ecb09f242ee561d265e33170a5f1105924951d410776c704de7b287d647a7379"
PARTITION_DIGEST = "00753f1d9323f709b08284f006df07a4401560ae82bc45072d30c7bff42a8a43"

# (orbit label, cz_orb) sorted by (action, cz, label) for T(3,4), action <= 2
CZ_TABLE_T34 = [
    ("q", 3),
    ("p", 5),
    ("q^2", 7),
    ("p^2", 9),
    ("q^3", 11),
    ("p^3", 13),
    ("q^4", 13),
    ("h", 14),
    ("b", 15),
    ("q^5", 17),
    ("p^4", 19),
    ("q^6", 21),
    ("p^5", 23),
    ("q^7", 25),
    ("p^6", 27),
    ("q^8", 27),
    ("h^2", 28),
    ("b^2", 29),
]
