"""The engine fast-path benchmark and the weekly perf gate."""
