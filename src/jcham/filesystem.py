"""File system and execution hierarchy environment.

Files associate a name atom with an executable resource (content behind
read/write/exec channels).  The registry is one message ``fsdir`` holding a
cons-list of cells ``name ++ (read ++ (write ++ exec))``; commands take the
registry, walk it with an accumulator, act on the matching cell, and
rebuild the list.  Holding the registry during a walk serialises commands.
Commands on names without a cell surface as an inert ``fs_err`` message;
``execute`` instead falls back to name completion when a hierarchy of
complements is installed (``complist`` keeps them head-first by
preemptiveness, ``preempt`` pushes a new head and drops the tail element).

All command channels carry an explicit reply argument so a caller resumes
only once the command has fully settled.
"""

from __future__ import annotations

from typing import Optional, Sequence as Seq

from .contexts import Context, ContextError, ResourceSpec, _validate, managed_execution_rules, resource_rules
from .syntax import (
    Atom,
    Concat,
    Conditional,
    Expression,
    Hole,
    Let,
    LocalDef,
    Message,
    MsgPat,
    Name,
    NameRef,
    Null,
    Parallel,
    PatJoin,
    Process,
    Proj,
    Rule,
    SyncCall,
    Sequence,
    conj_of,
    embed_atom,
    par,
)

NIL = NameRef(Name("nil"))


def _n(s: str) -> Name:
    return Name(s)


def _r(s: str) -> NameRef:
    return NameRef(_n(s))


def _if(a: Expression, b: Expression, then: Process, orelse: Process) -> Process:
    return Conditional(a, b, then, orelse)


def _msg(ch: str, *args: Expression) -> Message:
    return Message(_n(ch), tuple(args))


def _cons(head: Expression, tail: Expression) -> Expression:
    return Concat(head, tail)


def _cell_name(cell: Expression) -> Expression:
    return Proj(cell, 1)


def _cell_read(cell: Expression) -> Expression:
    return Proj(Proj(cell, 2), 1)


def _cell_write(cell: Expression) -> Expression:
    return Proj(Proj(Proj(cell, 2), 2), 1)


def _cell_exec(cell: Expression) -> Expression:
    return Proj(Proj(Proj(cell, 2), 2), 2)


def _head(l: Expression) -> Expression:
    return Proj(l, 1)


def _tail(l: Expression) -> Expression:
    return Proj(l, 2)


def _scan_rule(scan: str, extras: list[str], found: Process, missing: Process) -> Rule:
    """Walk ``rem`` with accumulator ``acc``: dispatch to ``found`` when the
    head cell's name equals the first extra, recurse otherwise."""
    binders = tuple(Name(x) for x in extras) + (Name("rem"), Name("acc"), Name("k"))
    again = _msg(
        scan,
        *[NameRef(Name(x)) for x in extras],
        _tail(_r("rem")),
        _cons(_head(_r("rem")), _r("acc")),
        _r("k"),
    )
    body = _if(
        _r("rem"),
        NIL,
        missing,
        _if(_cell_name(_head(_r("rem"))), NameRef(Name(extras[0])), found, again),
    )
    return Rule(MsgPat(_n(scan), binders), body)


def _restore(k_expr: Expression, rem: Expression) -> Process:
    """Rebuild the registry from the accumulator onto ``rem``."""
    return _msg("fs_unw", _r("acc"), rem, k_expr)


def file_system(
    entries: Seq[tuple[Atom, Atom]],
    complements: Optional[Seq[Atom]] = None,
    extra_rules: Seq[Rule] = (),
) -> Context:
    """Environment with managed execution plus a file system.

    ``entries`` pairs file names with initial contents.  When
    ``complements`` is given, the execution hierarchy is installed and
    ``execute`` completes unknown names against it.
    """
    names = [n for n, _ in entries]
    if len(names) != len(set(map(str, names))):
        raise ContextError("file names must be distinct")

    rules: list[Rule] = managed_execution_rules()
    priv: set[Name] = {_n("current"), _n("sys_updt")}
    r_set: set[Name] = set()
    initial: list[Process] = [Message(_n("current"), (_r("null"),))]

    # per-file resources, registry cells; building the registry by
    # prepending in entry order makes listings come out oldest first
    dir_list: Expression = NIL
    for j, (fname, content) in enumerate(entries, start=1):
        spec = ResourceSpec(label=f"f{j}", kind="executable", initial=content)
        sr, sw, se, cont = (_n(f"fsr{j}"), _n(f"fsw{j}"), _n(f"fse{j}"), _n(f"fcontent{j}"))
        rules.extend(resource_rules(spec, sr, sw, se, cont, runner=_n("proc_exec")))
        initial.append(Message(cont, (embed_atom(content),)))
        r_set.update({sr, sw, se})
        priv.add(cont)
        cell = _cons(embed_atom(fname), _cons(NameRef(sr), _cons(NameRef(sw), NameRef(se))))
        dir_list = _cons(cell, dir_list)
    initial.append(Message(_n("fsdir"), (dir_list,)))
    priv.add(_n("fsdir"))

    # run-time file factory
    dyn = ResourceSpec(label="file", kind="executable", initial=Name("empty"))
    inner = resource_rules(
        dyn, _n("file_read"), _n("file_write"), _n("file_exec"), _n("file_content"), runner=_n("proc_exec")
    )
    rules.append(
        Rule(
            MsgPat(_n("mk_file"), (Name("f0"), Name("k"))),
            LocalDef(
                conj_of(inner),
                Parallel(
                    _msg("file_content", _r("f0")),
                    _msg("k", _r("file_read"), _r("file_write"), _r("file_exec")),
                ),
            ),
        )
    )
    priv.add(_n("mk_file"))

    # shared unwinder: pour the accumulator back onto `built`, restore, ack
    rules.append(
        Rule(
            MsgPat(_n("fs_unw"), (Name("acc"), Name("built"), Name("k"))),
            _if(
                _r("acc"),
                NIL,
                Parallel(_msg("fsdir", _r("built")), _msg("k")),
                _msg("fs_unw", _tail(_r("acc")), _cons(_head(_r("acc")), _r("built")), _r("k")),
            ),
        )
    )
    rules.append(Rule(MsgPat(_n("fs_done"), ()), Null()))
    priv.update({_n("fs_unw"), _n("fs_done")})

    def grab(cmd: str, scan: str, *extras: str) -> Rule:
        """``cmd<extras..., k> | fsdir<d> |> scan<extras..., d, nil, k>``"""
        binders = tuple(Name(x) for x in extras) + (Name("k"),)
        return Rule(
            PatJoin(MsgPat(_n(cmd), binders), MsgPat(_n("fsdir"), (Name("d"),))),
            _msg(scan, *[NameRef(Name(x)) for x in extras], _r("d"), NIL, _r("k")),
        )

    # new: create a resource, prepend its cell
    rules.append(
        Rule(
            PatJoin(MsgPat(_n("new"), (Name("n"), Name("k"))), MsgPat(_n("fsdir"), (Name("d"),))),
            Let(
                (Name("nr"), Name("nw"), Name("nx")),
                SyncCall(_n("mk_file"), (_r("null"),)),
                Parallel(
                    _msg(
                        "fsdir",
                        _cons(
                            _cons(_r("n"), _cons(_r("nr"), _cons(_r("nw"), _r("nx")))),
                            _r("d"),
                        ),
                    ),
                    _msg("k"),
                ),
            ),
        )
    )

    # delete: drop the cell
    rules.append(grab("delete", "del_scan", "n"))
    rules.append(
        _scan_rule(
            "del_scan",
            ["n"],
            found=_restore(_r("k"), _tail(_r("rem"))),
            missing=Parallel(_msg("fs_err", _r("n")), _restore(_r("k"), NIL)),
        )
    )
    priv.add(_n("del_scan"))

    # move: rebind the cell under a new name (the old name dies)
    rules.append(grab("move", "mv_scan", "n", "n2"))
    rules.append(
        _scan_rule(
            "mv_scan",
            ["n", "n2"],
            found=_restore(
                _r("k"),
                _cons(_cons(_r("n2"), _tail(_head(_r("rem")))), _tail(_r("rem"))),
            ),
            missing=Parallel(_msg("fs_err", _r("n")), _restore(_r("k"), NIL)),
        )
    )
    priv.add(_n("mv_scan"))

    # write: restore the registry, then write the cell's resource
    rules.append(grab("write", "wr_scan", "n", "v"))
    rules.append(
        _scan_rule(
            "wr_scan",
            ["n", "v"],
            found=Parallel(
                _restore(_r("fs_done"), _r("rem")),
                _msg("wr_go", _cell_write(_head(_r("rem"))), _r("v"), _r("k")),
            ),
            missing=Parallel(_msg("fs_err", _r("n")), _restore(_r("k"), NIL)),
        )
    )
    rules.append(
        Rule(
            MsgPat(_n("wr_go"), (Name("swv"), Name("v"), Name("k"))),
            Sequence(SyncCall(Name("swv"), (_r("v"),)), _msg("k")),
        )
    )
    priv.update({_n("wr_scan"), _n("wr_go")})

    # read: deliver the content to the buffer channel
    rules.append(grab("read", "rd_scan", "n", "buf"))
    rules.append(
        _scan_rule(
            "rd_scan",
            ["n", "buf"],
            found=Parallel(
                _restore(_r("fs_done"), _r("rem")),
                _msg("rd_go", _cell_read(_head(_r("rem"))), _r("buf"), _r("k")),
            ),
            missing=Parallel(_msg("fs_err", _r("n")), _restore(_r("k"), NIL)),
        )
    )
    rules.append(
        Rule(
            MsgPat(_n("rd_go"), (Name("srv"), Name("buf"), Name("k"))),
            Let(
                (Name("f"),),
                SyncCall(Name("srv"), ()),
                Parallel(_msg("buf", _r("f")), _msg("k")),
            ),
        )
    )
    priv.update({_n("rd_scan"), _n("rd_go")})

    # execute: run the cell's resource; unknown names go to completion
    if complements is not None:
        ex_missing: Process = Parallel(
            _restore(_r("fs_done"), NIL),
            _msg("ex_comp", _r("n"), _r("a"), _r("k")),
        )
    else:
        ex_missing = Parallel(_msg("fs_err", _r("n")), _restore(_r("fs_done"), NIL))
    rules.append(grab("execute", "ex_scan", "n", "a"))
    rules.append(
        _scan_rule(
            "ex_scan",
            ["n", "a"],
            found=Parallel(
                _restore(_r("fs_done"), _r("rem")),
                _msg("ex_go", _cell_exec(_head(_r("rem"))), _r("a"), _r("k")),
            ),
            missing=ex_missing,
        )
    )
    rules.append(
        Rule(
            MsgPat(_n("ex_go"), (Name("sev"), Name("a"), Name("k"))),
            Message(Name("sev"), (_r("a"), _r("k"))),
        )
    )
    priv.update({_n("ex_scan"), _n("ex_go")})

    # listing: file names, oldest first, newest last; only reads the
    # registry, so it restores it immediately and walks a snapshot
    rules.append(
        Rule(
            PatJoin(MsgPat(_n("list_files"), (Name("k"),)), MsgPat(_n("fsdir"), (Name("d"),))),
            Parallel(_msg("fsdir", _r("d")), _msg("lf_walk", _r("d"), NIL, _r("k"))),
        )
    )
    rules.append(
        Rule(
            MsgPat(_n("lf_walk"), (Name("rem"), Name("acc"), Name("k"))),
            _if(
                _r("rem"),
                NIL,
                _msg("k", _r("acc")),
                _msg("lf_walk", _tail(_r("rem")), _cons(_cell_name(_head(_r("rem"))), _r("acc")), _r("k")),
            ),
        )
    )
    priv.add(_n("lf_walk"))

    services: set[Name] = {
        _n("proc_exec"),
        _n("sys_ref"),
        _n("new"),
        _n("delete"),
        _n("move"),
        _n("execute"),
        _n("read"),
        _n("write"),
        _n("list_files"),
    }

    if complements is not None:
        rules.extend(_hierarchy_rules())
        initial.append(
            Message(_n("complist"), (embed_atom(_cons_atoms(list(complements))),))
        )
        priv.update({_n("complist"), _n("ex_comp"), _n("ex_try"), _n("ex_chk"), _n("ex_lk"), _n("pre_drop"), _n("pre_unw")})
        services.add(_n("preempt"))

    rules.extend(extra_rules)

    template = LocalDef(conj_of(rules), par(*initial, Hole()))
    return _validate(
        Context(
            template=template,
            services=frozenset(services),
            resources=frozenset(r_set),
            privileged=frozenset(priv),
            dynamic_resource_bases=frozenset({"file_read", "file_write", "file_exec"}),
            exec_bases=frozenset({f"fse{i}" for i in range(1, len(entries) + 1)} | {"file_exec"}),
        )
    )


def _cons_atoms(items: list[Atom]) -> Atom:
    from .syntax import cons_list

    return cons_list(items)


def _hierarchy_rules() -> list[Rule]:
    """Completion of short names against the complement list, and preemption."""
    rules: list[Rule] = []
    # take a complement snapshot, try complements in order
    rules.append(
        Rule(
            PatJoin(
                MsgPat(_n("ex_comp"), (Name("n"), Name("a"), Name("k"))),
                MsgPat(_n("complist"), (Name("cl"),)),
            ),
            Parallel(
                _msg("complist", _r("cl")),
                _msg("ex_try", _r("n"), _r("cl"), _r("a"), _r("k")),
            ),
        )
    )
    rules.append(
        Rule(
            MsgPat(_n("ex_try"), (Name("n"), Name("rem"), Name("a"), Name("k"))),
            _if(
                _r("rem"),
                NIL,
                _msg("no_completion", _r("n")),
                _msg("ex_chk", _cons(_r("n"), _head(_r("rem"))), _r("n"), _r("rem"), _r("a"), _r("k")),
            ),
        )
    )
    # look the candidate up in a registry snapshot
    rules.append(
        Rule(
            PatJoin(
                MsgPat(_n("ex_chk"), (Name("ln"), Name("n"), Name("rem"), Name("a"), Name("k"))),
                MsgPat(_n("fsdir"), (Name("d"),)),
            ),
            Parallel(
                _msg("fsdir", _r("d")),
                _msg("ex_lk", _r("ln"), _r("d"), _r("n"), _r("rem"), _r("a"), _r("k")),
            ),
        )
    )
    rules.append(
        Rule(
            MsgPat(_n("ex_lk"), (Name("ln"), Name("drem"), Name("n"), Name("rem"), Name("a"), Name("k"))),
            _if(
                _r("drem"),
                NIL,
                _msg("ex_try", _r("n"), _tail(_r("rem")), _r("a"), _r("k")),
                _if(
                    _cell_name(_head(_r("drem"))),
                    _r("ln"),
                    _msg("execute", _r("ln"), _r("a"), _r("k")),
                    _msg("ex_lk", _r("ln"), _tail(_r("drem")), _r("n"), _r("rem"), _r("a"), _r("k")),
                ),
            ),
        )
    )
    # preempt: push a complement to the head, drop the tail element
    rules.append(
        Rule(
            PatJoin(MsgPat(_n("preempt"), (Name("c"), Name("k"))), MsgPat(_n("complist"), (Name("cl"),))),
            _if(
                _r("cl"),
                NIL,
                Parallel(_msg("complist", _cons(_r("c"), NIL)), _msg("k")),
                _msg("pre_drop", _r("c"), _r("cl"), NIL, _r("k")),
            ),
        )
    )
    rules.append(
        Rule(
            MsgPat(_n("pre_drop"), (Name("c"), Name("rem"), Name("acc"), Name("k"))),
            _if(
                _tail(_r("rem")),
                NIL,
                _msg("pre_unw", _r("acc"), NIL, _r("c"), _r("k")),
                _msg("pre_drop", _r("c"), _tail(_r("rem")), _cons(_head(_r("rem")), _r("acc")), _r("k")),
            ),
        )
    )
    rules.append(
        Rule(
            MsgPat(_n("pre_unw"), (Name("acc"), Name("built"), Name("c"), Name("k"))),
            _if(
                _r("acc"),
                NIL,
                Parallel(_msg("complist", _cons(_r("c"), _r("built"))), _msg("k")),
                _msg("pre_unw", _tail(_r("acc")), _cons(_head(_r("acc")), _r("built")), _r("c"), _r("k")),
            ),
        )
    )
    return rules


def exec_hierarchy(complements: Seq[Atom]) -> tuple[list[Rule], Process]:
    """The hierarchy fragment on its own: rules plus the initial complement
    list message, for embedding into custom environments."""
    if not complements:
        raise ContextError("need at least one complement")
    return _hierarchy_rules(), Message(_n("complist"), (embed_atom(_cons_atoms(list(complements))),))
