"""Filtered cylindrical contact homology of spherical space forms.

Library layout:

- ``chlab.groups``    finite quaternion subgroups, classes, spherical geometry
- ``chlab.orbits``    closed orbit enumeration, indices, homotopy classes
- ``chlab.homology``  filtration levels as graded counts, direct limits
- ``chlab.czengine``  numerical index engines (crossing form, spectral flow)
- ``chlab.morse``     invariant Morse functions on the quotient sphere
- ``chlab.cli``       command line interface
"""

__version__ = "0.1.0"
