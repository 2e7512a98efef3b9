"""External benchmark of the gkhyper package; see README.md."""
