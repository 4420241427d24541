# Convenience entrypoints mirroring .github/workflows/ci.yml.
.PHONY: ci test lint bench docs packaging

ci:
	scripts/ci.sh all

test:
	scripts/ci.sh tests

lint:
	scripts/ci.sh lint

# Benchmark gates (pytest benchmarks -k "smoke or batch") plus the sample
# obs trace; fails if either rewrites a tracked file.  The performance
# record itself is perfbench: see docs/benchmarks.md.
bench:
	scripts/ci.sh bench

packaging:
	scripts/ci.sh packaging

docs:
	scripts/ci.sh docs
