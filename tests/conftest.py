from hypothesis import settings

# every property runs the same examples on every run: no random draw, no example database
settings.register_profile("cyldla", derandomize=True, database=None, deadline=None)
settings.load_profile("cyldla")

ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)
