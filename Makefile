PYTHON ?= python3
OUT := out/toy-2d
SDFM := PYTHONPATH=src $(PYTHON) -m sdfm

.PHONY: test acceptance demos bench bench-trace bench-pairs bench-smoke check loc toy-2d clean

# The ROADMAP's tier-1 command: a collection error in one file does not
# stop the rest of the suite.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -q --continue-on-collection-errors

acceptance:
	PYTHONPATH=src $(PYTHON) -m pytest -v -s tests/test_acceptance.py

# The four narrative demos (about a minute on two cores); fails on the
# first demo that exits non-zero. A RuntimeWarning is an error, as in the
# tests (pyproject.toml).
demos:
	for f in demos/*.py; do \
	    echo "== $$f"; \
	    PYTHONPATH=src $(PYTHON) -W error::RuntimeWarning $$f || exit 1; \
	done

# Both benchmark workloads at the held-out seed (about 2 minutes each).
bench:
	for w in desk-2d highdim-eps; do \
	    $(PYTHON) perfbench/run.py --workload $$w --seed 9001 --seconds 50 \
	        --trace 0 || exit 1; \
	done

# The same runs traced (--trace 1): per-layer call counts, entries and
# self times, written to .perfbench_out/<workload>-seed9001-trace1.json.
bench-trace:
	for w in desk-2d highdim-eps; do \
	    $(PYTHON) perfbench/run.py --workload $$w --seed 9001 --seconds 50 \
	        --trace 1 || exit 1; \
	done

# Both workloads in PAIRS alternating pairs of untraced runs, one in the
# parent checkout PARENT and one in this one, compared metric by metric
# (tools/bench_pairs.py): make bench-pairs PARENT=<dir> [PAIRS=10 SEED=9001]
PAIRS ?= 10
SEED ?= 9001
bench-pairs:
	@test -n "$(PARENT)" || { echo "error: set PARENT=<parent checkout>" >&2; exit 2; }
	$(PYTHON) tools/bench_pairs.py --parent $(PARENT) --pairs $(PAIRS) --seed $(SEED)

bench-smoke:
	$(PYTHON) -m pytest -q perfbench/smoke_test.py

# Tier-1 tests, the harness smoke test, which also runs both traced
# benchmark recipes (tier-1 traces one tiny recipe of every command), and
# the four demos.
check: test bench-smoke demos

# Total lines of the package's modules, the net-size metric of ROADMAP aim 2,
# then the same lines split by tokenize: a docstring line belongs to a string
# literal that is a statement by itself, a comment line holds only a comment,
# a blank line only whitespace outside a string, and every other line is code.
# Each module's code lines follow, one module a line.
define LOC_SPLIT
import os, sys, tokenize
counts = dict(code=0, docstring=0, comment=0, blank=0)
module_code = {}
for path in sys.argv[1:]:
    code_before = counts["code"]
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    kind, depth, start = {}, 0, False
    for tok, nxt in zip(tokens, tokens[1:]):
        if tok.type == tokenize.STRING:
            doc = start and depth == 0 and nxt.type in (
                tokenize.NEWLINE, tokenize.COMMENT)
            for line in range(tok.start[0], tok.end[0] + 1):
                kind[line] = "docstring" if doc else "code"
        elif tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            kind.setdefault(tok.start[0], "comment")
        elif tok.type == tokenize.OP:
            depth += (tok.string in "([{") - (tok.string in ")]}")
        start = depth == 0 and tok.type in (tokenize.ENCODING,
            tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT)
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            counts[kind.get(number, "code" if line.strip() else "blank")] += 1
    module_code[os.path.basename(path)] = counts["code"] - code_before
print(" ".join(f"{key}={value}" for key, value in counts.items()))
for name, code in module_code.items():
    print(f"  {name} code={code}")
endef
export LOC_SPLIT

loc:
	@cat src/sdfm/*.py | wc -l
	@$(PYTHON) -c "$$LOC_SPLIT" src/sdfm/*.py

# End-to-end desk recipe: dataset -> potential -> two flow models that
# differ only in the coupling -> samples -> metrics. The solve sets its own
# step size and stops on tau (exit 0) at iteration 18000, after about 37 s
# on a two-core box (36.5 and 36.7 s at solver seed 0, 36.3 and 38.8 s at
# seed 1, and 32.7 and 33.0 s at seed 2, which stops at iteration 16000;
# one fresh process each). The same box took 41-46 s before the eps=0
# score stream's padded stride.
toy-2d:
	mkdir -p $(OUT)
	$(SDFM) dataset --name eight-gaussians --n 4096 --seed 0 --out $(OUT)/data.sdfm
	$(SDFM) solve --data $(OUT)/data.sdfm --eps 0 --tau 0.05 \
	    --iters 40000 --batch 1024 --seed 0 --out $(OUT)/pot.sdfm
	$(SDFM) chisq --potential $(OUT)/pot.sdfm --data $(OUT)/data.sdfm \
	    --samples 65536 --seed 9
	$(SDFM) assign --potential $(OUT)/pot.sdfm --data $(OUT)/data.sdfm \
	    --sample 4096 --seed 1 --out $(OUT)/pairs.sdfm
	$(SDFM) train --data $(OUT)/data.sdfm --coupling independent \
	    --steps 1500 --batch 256 --hidden 64 64 64 --seed 0 \
	    --out $(OUT)/ifm.sdfm
	$(SDFM) train --data $(OUT)/data.sdfm --coupling sd \
	    --potential $(OUT)/pot.sdfm --steps 1500 --batch 256 \
	    --hidden 64 64 64 --seed 0 --out $(OUT)/sdfm.sdfm
	$(SDFM) sample --model $(OUT)/ifm.sdfm --count 1024 --solver euler \
	    --steps 4 --seed 2 --out $(OUT)/ifm_euler4
	$(SDFM) sample --model $(OUT)/sdfm.sdfm --count 1024 --solver euler \
	    --steps 4 --seed 2 --out $(OUT)/sdfm_euler4
	$(SDFM) eval --model $(OUT)/ifm.sdfm --count 1024 --steps 4 --seed 3 \
	    --out $(OUT)/ifm_report.json
	$(SDFM) eval --model $(OUT)/sdfm.sdfm --count 1024 --steps 4 --seed 3 \
	    --out $(OUT)/sdfm_report.json
	@echo "== I-FM:" && cat $(OUT)/ifm_report.json && echo
	@echo "== SD-FM:" && cat $(OUT)/sdfm_report.json && echo

clean:
	rm -rf out
