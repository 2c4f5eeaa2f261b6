"""The benchmark's committed record: digest and work pins checked in CI."""
