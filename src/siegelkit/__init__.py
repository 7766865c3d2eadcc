"""siegelkit: exact continued-fraction arithmetic, linearization of
indifferent disk germs, conformal-radius estimation of Siegel disks, and
sector renormalization of half-plane lifts, with scan and probe drivers.

The package root exports nothing: import from the modules, e.g.
``from siegelkit.scan import scan_r``."""
