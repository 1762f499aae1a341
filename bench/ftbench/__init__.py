"""Closed-loop benchmark harness for the ftmd solver (see bench/README.md)."""
