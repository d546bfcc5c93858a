"""symmetria: construct the concrete objects behind a family of symmetry
structures (rotations, Galilei/Poincare elements, conformal maps, harmonic
machinery, the C60 graph, deformed enveloping algebras, and elliptic
r/R-matrices with the Sklyanin algebra) and verify every identity they are
claimed to satisfy, exactly where possible and numerically elsewhere.
"""

__version__ = "0.1.0"
