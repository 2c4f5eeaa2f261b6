"""The benchmark's committed record: digest pins checked in CI."""
