"""Plug-and-play ADMM image restoration with residual-envelope diagnostics."""
