"""Run ``evslab.cli.main`` in process, as ``CliRunner().invoke(main, args,
env=...)``, and capture what it prints and how it exits."""

import contextlib
import io
import os


class Result:
    def __init__(self, exit_code, stdout, stderr, exception):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = stdout + stderr  # usage errors are on stderr
        self.exception = exception  # None, or what ended a failed run


class CliRunner:
    def invoke(self, main, args, env=None) -> Result:
        """``main(args)`` with ``env`` added to the environment (a None
        value unsets its variable) for the call only."""
        out, err = io.StringIO(), io.StringIO()
        saved = dict(os.environ)
        for name, value in (env or {}).items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        code, exception = 0, None
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                main(list(args))
        except SystemExit as exc:
            code = exc.code or 0  # main exits with an int
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
        finally:
            os.environ.clear()
            os.environ.update(saved)
        return Result(code, out.getvalue(), err.getvalue(), exception)
