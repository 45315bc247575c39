"""Intersection types without a top element: syntax, rewriting, a polynomial
subtype decision procedure, and finite depth-truncation models.

Importing the package loads no submodule.  Every public name is looked up in
`_EXPORTS` and loads its submodule on first use, so a `bcd le` or `bcd sat`
process never compiles the rewriting, model or self-test code.  No submodule
shares its name with a public name, so importing a submodule never rebinds
one.
"""

_EXPORTS = {
    name: module
    for module, names in (
        ("syntax", "ARROW_SOURCE ARROW_TARGET INFINITE_DEPTH MEET_LEFT MEET_RIGHT "
                   "TRUNCATION_ATOM Arrow Atom Expr InvalidPosition Meet ParseError "
                   "arrow_depth atoms_of dept_normal_form node_count parse render "
                   "subexpressions"),
        ("decide", "DecisionCache Factor LimitExceeded SubtypeMatrix equiv explain factors "
                   "satisfies_eq subseteq subtype_matrix"),
        ("model", "Model UnknownAtom build_model stack_of_twos"),
        ("rewrite", "ASSO ASSO_INV COMM DIST IDEM MissingParameter NotARedex Rule Trace "
                    "TraceStep Verdict absp apply convertible_bounded dept "
                    "dist_normal_form meet_members meet_of redexes slat_canonical"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # what `from .<module> import <name>` runs; unlike importlib.import_module
    # it goes through the import statement's path, so -X importtime sees it
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value  # later lookups are plain global hits
    return value


def __dir__():
    return sorted(__all__ + [n for n in globals() if n.startswith("__")])

