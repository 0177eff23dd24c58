"""Acceptance suite: the headline physics claims at their stated tolerances.

The criteria live in :func:`twospinboson.checks.acceptance_checks`, which
``twospinboson verify`` runs too.  Each test prints one machine-greppable line

    PASS criterion <k>: <measured values>
    FAIL criterion <k>: <measured values>

before asserting it (run pytest with ``-s`` to see the lines).
"""

CLAIMS = ("commensurate_maximal_entanglement", "ideal_limit_convergence",
          "oracle_equivalence", "gapless_closed_forms", "power_law_slope",
          "gap_protects_steady_state", "monotonicity_suite", "decoherence_free_subspace",
          "density_validity_everywhere")


def _runner(k):
    def test(all_suites):
        result = all_suites["acceptance"][k - 1]
        print(result.line())
        assert result.passed, result.line()
    return test


# One runner per criterion, named test_criterion_<k>_<claim> so that each
# criterion keeps its own test id.
for _k, _claim in enumerate(CLAIMS, start=1):
    globals()[f"test_criterion_{_k}_{_claim}"] = _runner(_k)
