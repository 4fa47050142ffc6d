"""The public surface of the package."""

import flatlat
from flatlat import FiniteLattice, SimplicialComplex


def test_public_names_are_sorted_resolve_and_exclude_the_removed_aliases():
    assert flatlat.__all__ == sorted(flatlat.__all__)
    assert [name for name in flatlat.__all__ if not hasattr(flatlat, name)] == []
    for name in ("from_faces", "validate_lattice", "flats_lattice", "is_flat", "AllLoops"):
        assert not hasattr(flatlat, name)
    assert not hasattr(FiniteLattice, "label")
    assert not hasattr(FiniteLattice, "is_semimodular_by_covers")
    assert not hasattr(SimplicialComplex, "proper_part")
