import pytest

from corrbern import balance, verify


class TestBalancingOracles:
    @pytest.mark.parametrize(
        "name, shift",
        [
            ("balanced_alignment_strength", 1e-9),
            ("modified_alignment_strength", 1e-11),
            ("balanced_dxdy", 1e-11),
        ],
    )
    def test_perturbed_closed_form_fails(self, monkeypatch, name, shift):
        # Each shift is ten times the bound the check allows that closed form.
        original = getattr(balance, name)
        monkeypatch.setattr(balance, name, lambda pt: original(pt) + shift)
        ok, detail = verify.check_balancing_oracles(3)
        assert not ok, detail
