PYTHON ?= python3
OUT := out/toy-2d
SDFM := PYTHONPATH=src $(PYTHON) -m sdfm

.PHONY: test acceptance demos bench bench-trace bench-smoke check toy-2d clean

test:
	PYTHONPATH=src $(PYTHON) -m pytest -q

acceptance:
	PYTHONPATH=src $(PYTHON) -m pytest -v -s tests/test_acceptance.py

# The four narrative demos (about a minute on two cores); fails on the
# first demo that exits non-zero.
demos:
	for f in demos/*.py; do \
	    echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; \
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

bench-smoke:
	$(PYTHON) -m pytest -q perfbench/smoke_test.py

# Tier-1 tests, then the harness smoke test, which also runs the traced
# recipe (tier-1 only checks that the tracer's by-name lookups resolve).
check: test bench-smoke

# End-to-end desk recipe: dataset -> potential -> two flow models that
# differ only in the coupling -> samples -> metrics. The solve stops on
# tau (exit 0) at iteration 12000, after about 2 minutes on two cores.
toy-2d:
	mkdir -p $(OUT)
	$(SDFM) dataset --name eight-gaussians --n 4096 --seed 0 --out $(OUT)/data.sdfm
	$(SDFM) solve --data $(OUT)/data.sdfm --eps 0 --tau 0.05 --lr 0.05 \
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
