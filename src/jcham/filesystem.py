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
only once the command has fully settled.  The environment is written in
the concrete syntax, like those of ``contexts``.
"""

from __future__ import annotations

from typing import Optional, Sequence as Seq

from .contexts import MANAGED_EXECUTION, Context, ContextError, _validate, par_text, resource_text
from .parser import atom_source, parse, parse_definition
from .syntax import Atom, LocalDef, Message, Rule, conj_of, cons_list, rules_of

# Completion of short names against the complement list, and preemption.
HIERARCHY = """
    # take a complement snapshot, try complements in order
        ex_comp<n, a, k> | complist<cl> |> complist<cl> | ex_try<n, cl, a, k>
    and ex_try<n, rem, a, k> |> if [rem = nil] then no_completion<n>
                                else ex_chk<n ++ fst(rem), n, rem, a, k>
    # look the candidate up in a registry snapshot
    and ex_chk<ln, n, rem, a, k> | fsdir<d> |> fsdir<d> | ex_lk<ln, d, n, rem, a, k>
    and ex_lk<ln, drem, n, rem, a, k> |> if [drem = nil] then ex_try<n, snd(rem), a, k>
                                         else if [fst(fst(drem)) = ln] then execute<ln, a, k>
                                         else ex_lk<ln, snd(drem), n, rem, a, k>
    # preempt: push a complement to the head, drop the tail element
    and preempt<c, k> | complist<cl> |> if [cl = nil] then (complist<c ++ nil> | k<>)
                                         else pre_drop<c, cl, nil, k>
    and pre_drop<c, rem, acc, k> |> if [snd(rem) = nil] then pre_unw<acc, nil, c, k>
                                    else pre_drop<c, snd(rem), fst(rem) ++ acc, k>
    and pre_unw<acc, built, c, k> |> if [acc = nil] then (complist<c ++ built> | k<>)
                                     else pre_unw<snd(acc), fst(acc) ++ built, c, k>"""


def file_system(
    entries: Seq[tuple[Atom, Atom]],
    complements: Optional[Seq[Atom]] = None,
    extra_rules: Seq[Rule] = (),
) -> Context:
    """Environment with managed execution plus a file system.

    ``entries`` pairs file names with initial contents.  When
    ``complements`` is given, the execution hierarchy is installed and
    ``execute`` completes unknown names against it.  ``extra_rules`` are
    added after the file system's own.
    """
    names = [n for n, _ in entries]
    if len(names) != len(set(map(str, names))):
        raise ContextError("file names must be distinct")
    files = range(1, len(entries) + 1)

    # the registry lists cells newest first, so listings come out oldest first
    cells = [f"({atom_source(name, ContextError)} ++ fsr{j} ++ fsw{j} ++ fse{j})" for j, name in zip(files, names)]
    initial = [
        "current<null>",
        *(f"fcontent{j}<{atom_source(content, ContextError)}>" for j, (_, content) in zip(files, entries)),
        f"fsdir<{' ++ '.join([*reversed(cells), 'nil'])}>",
    ]
    if complements is None:
        unknown_exec = "(fs_err<n> | fs_unw<acc, nil, fs_done>)"
    else:
        unknown_exec = "(fs_unw<acc, nil, fs_done> | ex_comp<n, a, k>)"
        initial.append(f"complist<{atom_source(cons_list(list(complements)), ContextError)}>")

    # a command takes the registry and scans it, carrying the cells left to
    # visit in `rem` and the visited ones in the accumulator `acc`
    defs = parse_definition(f"""
        {MANAGED_EXECUTION}
        {"".join("and " + resource_text(f"fsr{j}", f"fsw{j}", f"fcontent{j}", f"fse{j}", "proc_exec") for j in files)}
    # run-time file factory
    and mk_file<f0, k> |> (
        def {resource_text("file_read", "file_write", "file_content", "file_exec", "proc_exec")}
        in file_content<f0> | k<file_read, file_write, file_exec>)
    # shared unwinder: pour the accumulator back onto `built`, restore, ack
    and fs_unw<acc, built, k> |> if [acc = nil] then (fsdir<built> | k<>)
                                 else fs_unw<snd(acc), fst(acc) ++ built, k>
    and fs_done<> |> 0
    # new: create a resource, prepend its cell
    and new<n, k> | fsdir<d> |> (let nr, nw, nx = mk_file(null) in fsdir<(n ++ nr ++ nw ++ nx) ++ d> | k<>)
    # delete: drop the cell
    and delete<n, k> | fsdir<d> |> del_scan<n, d, nil, k>
    and del_scan<n, rem, acc, k> |> if [rem = nil] then (fs_err<n> | fs_unw<acc, nil, k>)
                                    else if [fst(fst(rem)) = n] then fs_unw<acc, snd(rem), k>
                                    else del_scan<n, snd(rem), fst(rem) ++ acc, k>
    # move: rebind the cell under a new name (the old name dies)
    and move<n, n2, k> | fsdir<d> |> mv_scan<n, n2, d, nil, k>
    and mv_scan<n, n2, rem, acc, k> |> if [rem = nil] then (fs_err<n> | fs_unw<acc, nil, k>)
                                       else if [fst(fst(rem)) = n] then fs_unw<acc, (n2 ++ snd(fst(rem))) ++ snd(rem), k>
                                       else mv_scan<n, n2, snd(rem), fst(rem) ++ acc, k>
    # write: restore the registry, then write the cell's resource
    and write<n, v, k> | fsdir<d> |> wr_scan<n, v, d, nil, k>
    and wr_scan<n, v, rem, acc, k> |> if [rem = nil] then (fs_err<n> | fs_unw<acc, nil, k>)
                                      else if [fst(fst(rem)) = n] then (fs_unw<acc, rem, fs_done> | wr_go<fst(snd(snd(fst(rem)))), v, k>)
                                      else wr_scan<n, v, snd(rem), fst(rem) ++ acc, k>
    and wr_go<swv, v, k> |> (swv(v); k<>)
    # read: deliver the content to the buffer channel
    and read<n, buf, k> | fsdir<d> |> rd_scan<n, buf, d, nil, k>
    and rd_scan<n, buf, rem, acc, k> |> if [rem = nil] then (fs_err<n> | fs_unw<acc, nil, k>)
                                        else if [fst(fst(rem)) = n] then (fs_unw<acc, rem, fs_done> | rd_go<fst(snd(fst(rem))), buf, k>)
                                        else rd_scan<n, buf, snd(rem), fst(rem) ++ acc, k>
    and rd_go<srv, buf, k> |> (let f = srv() in buf<f> | k<>)
    # execute: run the cell's resource; unknown names go to completion
    and execute<n, a, k> | fsdir<d> |> ex_scan<n, a, d, nil, k>
    and ex_scan<n, a, rem, acc, k> |> if [rem = nil] then {unknown_exec}
                                      else if [fst(fst(rem)) = n] then (fs_unw<acc, rem, fs_done> | ex_go<snd(snd(snd(fst(rem)))), a, k>)
                                      else ex_scan<n, a, snd(rem), fst(rem) ++ acc, k>
    and ex_go<sev, a, k> |> sev<a, k>
    # listing: file names, oldest first, newest last; only reads the
    # registry, so it restores it immediately and walks a snapshot
    and list_files<k> | fsdir<d> |> fsdir<d> | lf_walk<d, nil, k>
    and lf_walk<rem, acc, k> |> if [rem = nil] then k<acc>
                                else lf_walk<snd(rem), fst(fst(rem)) ++ acc, k>
    {"" if complements is None else "and " + HIERARCHY}
    """)

    privileged = ["current", "sys_updt", *(f"fcontent{j}" for j in files), "fsdir", "mk_file", "fs_unw", "fs_done"]
    privileged += ["del_scan", "mv_scan", "wr_scan", "wr_go", "rd_scan", "rd_go", "ex_scan", "ex_go", "lf_walk"]
    services = ["proc_exec", "sys_ref", "new", "delete", "move", "execute", "read", "write", "list_files"]
    if complements is not None:
        privileged += ["complist", "ex_comp", "ex_try", "ex_chk", "ex_lk", "pre_drop", "pre_unw"]
        services.append("preempt")
    return _validate(
        Context(
            template=LocalDef(conj_of([*rules_of(defs), *extra_rules]), parse(par_text([*initial, "HOLE"]))),
            services=frozenset(services),
            resources=frozenset(f"{c}{j}" for c in ("fsr", "fsw", "fse") for j in files),
            privileged=frozenset(privileged),
            dynamic_resource_bases=frozenset({"file_read", "file_write", "file_exec"}),
            exec_bases=frozenset({f"fse{j}" for j in files} | {"file_exec"}),
        )
    )


def exec_hierarchy(complements: Seq[Atom]) -> tuple[list[Rule], Message]:
    """The hierarchy fragment on its own: rules plus the initial complement
    list message, for embedding into custom environments."""
    if not complements:
        raise ContextError("need at least one complement")
    return rules_of(parse_definition(HIERARCHY)), parse(f"complist<{atom_source(cons_list(list(complements)), ContextError)}>")
