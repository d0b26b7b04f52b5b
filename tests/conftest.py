"""Session setup shared by every test file.

On a failing example, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` inside a hook.  That import reaches ``libcst``,
which raises a DeprecationWarning, and ``filterwarnings = ["error"]`` would
turn it into an INTERNALERROR that ends the session before the tests after
the failure run.  Importing the module once here, with that warning ignored,
keeps every failure a reported failure.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

pytest_plugins = ("pytester",)
