import pytest

from jcham.contexts import ContextError
from jcham.engine import inject, inject_message, is_inert, run
from jcham.filesystem import exec_hierarchy, file_system
from jcham.parser import parse
from jcham.syntax import Name, Null, Pair

from _atoms import iter_cons


def settle(soup, steps=400):
    return run(soup, seed=0, max_steps=steps).final


def msgs_on(soup, base):
    return [m for m in soup.message_list() if m.channel.base == base]


@pytest.fixture
def fs2():
    return file_system([(Name("n1"), Name("f1")), (Name("n2"), Name("f2"))])


def test_stable(fs2):
    assert is_inert(inject(fs2.plug(Null())))


def test_write_then_read(fs2):
    s = settle(inject(fs2.plug(parse("write(n1, g1); read(n1, obs); 0"))))
    assert msgs_on(s, "obs")[0].args == (Name("g1"),)


def test_read_unchanged_other_file(fs2):
    s = settle(inject(fs2.plug(parse("write(n1, g1); read(n2, obs); 0"))))
    assert msgs_on(s, "obs")[0].args == (Name("f2"),)


def test_delete_then_command_dead_letters(fs2):
    s = settle(inject(fs2.plug(parse("delete(n1); write(n1, g1); 0"))))
    errs = msgs_on(s, "fs_err")
    assert errs and errs[0].args == (Name("n1"),)
    # the registry still answers for the other file
    s2 = settle(inject_message(s, s.channel("read"), (Name("n2"), Name("obs"), Name("k0"))))
    assert msgs_on(s2, "obs")[0].args == (Name("f2"),)


def test_unknown_name_dead_letters(fs2):
    s = settle(inject(fs2.plug(parse("read(ghost, obs); 0"))))
    assert msgs_on(s, "fs_err")[0].args == (Name("ghost"),)
    assert not msgs_on(s, "obs")


def test_move_rebinds_and_old_name_dies(fs2):
    # reading the old name dead-letters first, then the new name executes
    # (the executed content is an inert atom, so its call never returns)
    prog = parse("move(n1, n9); read(n1, obs); execute(n9, aa); 0")
    s = settle(inject(fs2.plug(prog)))
    assert any(m.channel.base == "f1" and m.args[0] == Name("aa") for m in s.messages)
    assert msgs_on(s, "fs_err")[0].args == (Name("n1"),)


def test_new_creates_executable_file(fs2):
    prog = parse("new(n3); write(n3, payload0); read(n3, obs); 0")
    s = settle(inject(fs2.plug(prog)))
    assert msgs_on(s, "obs")[0].args == (Name("payload0"),)


def test_execute_without_hierarchy_dead_letters(fs2):
    s = settle(inject(fs2.plug(parse("execute(ghost, aa); 0"))))
    assert msgs_on(s, "fs_err")[0].args == (Name("ghost"),)


@pytest.fixture
def fsh():
    exe, com = Name("exe"), Name("com")
    return file_system(
        [(Pair(Name("p"), exe), Name("f1"))],
        complements=[com, exe],
    )


def test_completion_finds_defined_name(fsh):
    # complete p: p++com is not a file, p++exe is
    s = settle(inject(fsh.plug(parse("execute(p, aa); 0"))))
    assert any(m.channel.base == "f1" and m.args[0] == Name("aa") for m in s.messages)


def test_completion_exhausts_to_dead_letter(fsh):
    s = settle(inject(fsh.plug(parse("execute(q, aa); 0"))))
    assert msgs_on(s, "no_completion")[0].args == (Name("q"),)


def test_preempt_reorders_completion(fsh):
    # create p.com, then preempt com: completion must now pick p.com first
    prog = parse("new(p ++ com); write(p ++ com, g0); preempt(com); execute(p, aa); 0")
    s = settle(inject(fsh.plug(prog)))
    assert any(m.channel.base == "g0" and m.args[0] == Name("aa") for m in s.messages)
    assert not any(m.channel.base == "f1" for m in s.messages)


def test_preempt_drops_tail_element(fsh):
    s = settle(inject(fsh.plug(parse("preempt(vxt); 0"))))
    comp = msgs_on(s, "complist")[0]
    assert [str(a) for a in iter_cons(comp.args[0])] == ["vxt", "com"]


def test_list_files_returns_names(fs2):
    s = settle(inject(fs2.plug(parse("let l = list_files() in listing<l>"))))
    got = msgs_on(s, "listing")[0]
    assert [str(a) for a in iter_cons(got.args[0])] == ["n1", "n2"]


def test_exec_hierarchy_fragment():
    rules, init = exec_hierarchy([Name("com")])
    assert rules and init.channel.base == "complist"
    with pytest.raises(ContextError):
        exec_hierarchy([])


def test_commands_serialize_through_registry(fs2):
    # two writes to the same file from parallel callers both land
    prog = parse("(write(n1, g1); done1<>) | (write(n1, g2); done2<>)")
    s = settle(inject(fs2.plug(prog)))
    assert msgs_on(s, "done1") and msgs_on(s, "done2")
    s2 = settle(inject_message(s, s.channel("read"), (Name("n1"), Name("obs"), Name("k0"))))
    final = msgs_on(s2, "obs")[0].args[0]
    assert final in (Name("g1"), Name("g2"))
