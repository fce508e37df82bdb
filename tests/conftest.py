from hypothesis import settings

# A deadline fails correct but slower code, at random on a loaded host; the
# property tests are judged on their results alone.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

