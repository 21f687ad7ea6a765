"""The end-to-end RTAD benchmark (see ``run.py`` and ``README.md``)."""
