"""Software model of an event-driven, online-learning spiking network
processor: AER packet I/O, iterative fixed-point leak arithmetic, and
trace-based STDP in an excitatory-inhibitory competitive layer.

The package re-exports nothing: each name is imported from the module
that defines it (``from aersnn.event_engine import EventEngine``), and
``import aersnn.cli`` loads only the modules the command line uses. The
version is declared once, in ``pyproject.toml``."""
