"""Residual-corrected flow editing engine with analytic velocity fields."""
