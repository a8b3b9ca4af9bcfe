"""Random configuration never crashes the CLI.

Every input drawn here is configuration: an INI file built from the
loader's own key list, or a `sweep` or `allocate` argv vector (the latter
over a valid profile file).  So `hybridnoc` must exit 0, or 1 with a
config error; exit 2 or an exception is a defect.  Values come from inside
each key's range, outside it, and of the wrong type.  The keys that name
data files, `trace` and `plan_file`, are left out.  Runs stay cheap: at
most 200 traffic cycles, meshes up to 4x4 (or the 51-NI preset) and at
most 20 GA generations, which is also why `sweep` never draws
`--allocator ga` (it searches 5000 generations).
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from hybridnoc.cli import main
from hybridnoc.orchestrator import _CONFIG_KEYS

# values of the wrong type, or with characters INI files treat specially
WRONG = ("abc", "", "1.5", "nan", "inf", "-0", "50%", "%(seed)s", "1e3", "yes")

# key -> (values in range, values out of range)
VALUES = {
    "mode": (("baseline_vc", "static_hybrid", "adaptive_hybrid"), ("quantum",)),
    "allocator": (("greedy", "ga", "oracle"), ("plan-file", "lp")),
    "granularity": (("e2e", "r2r"), ("socket",)),
    "label": (("demo", "two words", "café", "100%"), ("a/b", "x\0y", "../up")),
    "epoch_cycles": (("40", "100", "100000"), ("0", "-5", "1")),
    "config_period_cycles": (("0", "5", "20"), ("-1", "100000")),
    "seed": (("0", "7", "-3"), ()),
    "output_dir": (("results",), ()),
    "preset": (("cmp-4x4-51ni",), ("torus",)),
    "width": (("1", "2", "4"), ("0", "-1", "33")),
    "height": (("1", "2", "4"), ("0", "-2", "33")),
    "ni_per_router": (("1", "2"), ("0", "-1", "1,2", "1025")),
    "total_width_bits": (("128", "64", "96"), ("0", "-128")),
    "subnet_count": (("1", "2", "4", "8"), ("0", "3", "-1")),
    "gate_cs_buffers": (("true", "off", "0"), ("maybe",)),
    "vnets": (("1", "3", "16"), ("0", "17")),
    "vcs_per_vnet": (("1", "4", "16"), ("0", "-1", "17")),
    "buffer_depth_flits": (("1", "4", "256"), ("0", "257")),
    "cycles": (("1", "50", "200"), ("0", "-5")),
    "pattern": (("uniform_random", "permutation", "hotspot", "regular_mix"), ("zigzag",)),
    "injection_rate": (("0", "0.01", "0.05", "0.3"), ("-0.1", "5", "nan", "inf")),
    "control_fraction": (("0", "0.5", "1"), ("1.5", "-0.5")),
    "regularity": (("0", "0.9", "1"), ("-0.1", "2")),
    "designated_pair_count": (("1", "8", "50"), ("0", "1000")),
    "control_payload_bits": (("64", "128"), ("0", "-8", "65537")),
    "data_payload_bits": (("640", "100"), ("0", "65537")),
    "population_size": (("2", "10"), ("1", "0", "1025")),
    "generations": (("0", "5", "20"), ("-1",)),
    "chromosome_mutation_probability": (("0", "0.5", "1"), ("1.5", "-0.1")),
    "elitism_count": (("0", "1"), ("10", "-1")),
}
for _coefficient in _CONFIG_KEYS["energy"]:
    VALUES[_coefficient] = (("0", "0.5", "1"), ("-1", "nan"))

# keys that name data files, and keys every drawn file sets so that a run
# stays cheap (their defaults are 20000 cycles and 5000 generations)
DATA_KEYS = {"trace", "plan_file"}
ALWAYS = {"traffic": ("cycles",), "ga": ("generations",)}
# unknown sections and keys; [DEFAULT] is one too
STRAYS = [("bogus", "x"), ("traffic", "cycels"), ("DEFAULT", "x")]
# a preset mesh is set alone, so a drawn [mesh] holds the preset or the grid
GRID_KEYS = ("width", "height", "ni_per_router")


def section(name):
    """A section of in-range values: the keys of ALWAYS, others at random."""
    keys = [k for k in _CONFIG_KEYS[name] if k not in DATA_KEYS]
    if name == "mesh":
        keys = list(GRID_KEYS)
    always = ALWAYS.get(name, ())
    good = {k: st.sampled_from(VALUES[k][0]) for k in keys}
    return st.fixed_dictionaries(
        {k: good[k] for k in always}, optional={k: good[k] for k in keys if k not in always}
    )


@st.composite
def ini_files(draw):
    """A config file of in-range values with up to two faults.

    A fault is a value out of range or of the wrong type, a missing
    section, a mesh preset mixed with grid keys, or an unknown section or
    key.
    """
    sections = {name: draw(section(name)) for name in _CONFIG_KEYS}
    if draw(st.booleans()):
        sections["mesh"] = {"preset": "cmp-4x4-51ni"}
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(("value", "value", "drop", "preset", "stray")))
        if fault == "value":
            name = draw(st.sampled_from(sorted(sections)))
            keys = [k for k in _CONFIG_KEYS.get(name, ()) if k not in DATA_KEYS]
            if keys:
                key = draw(st.sampled_from(keys))
                sections[name][key] = draw(st.sampled_from(VALUES[key][1] + WRONG))
        elif fault == "drop":
            sections.pop(draw(st.sampled_from(sorted(set(sections) - set(ALWAYS)))), None)
        elif fault == "preset":
            preset = draw(st.sampled_from(VALUES["preset"][0] + VALUES["preset"][1]))
            sections.setdefault("mesh", {})["preset"] = preset
        else:
            name, key = draw(st.sampled_from(STRAYS))
            sections.setdefault(name, {})[key] = "1"
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def run_main(argv):
    rc = main(argv)
    assert rc in (0, 1), (argv, rc)


@settings(max_examples=150)
@given(ini=ini_files())
def test_any_config_file_exits_0_or_1(ini):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ini)
        run_main(["run", path, "--output", os.path.join(tmp, "out")])


@st.composite
def argv_with_faults(draw, options, always):
    """Flags with in-range values, then up to two faults.

    options maps each flag to (values in range, values out of range).  The
    flags of always are set first; others are set or left out at random.
    A fault gives a flag a value out of range, or leaves out one that is
    not in always.
    """
    chosen = {
        flag: draw(st.sampled_from(good)) for flag, (good, _) in options.items()
        if flag in always or draw(st.booleans())
    }
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from(sorted(options)))
        bad = options[flag][1]
        if bad and (flag in always or draw(st.booleans())):
            chosen[flag] = draw(st.sampled_from(bad))
        else:
            chosen.pop(flag, None)
    return [word for flag, v in chosen.items() for word in (flag, v)]


SWEEP = {
    "--cycles": (("1", "100", "200"), ("0", "-5", "x")),
    "--mesh": (("2x2", "3x1", "4x4", "cmp-4x4-51ni"),
               ("1x1", "2x1", "0x3", "33x1", "donut", "4x")),
    "--pattern": (("uniform_random", "permutation", "hotspot", "regular_mix"), ("zigzag",)),
    "--regularity": (("0", "0.5", "1"), ("-0.5", "nan", "x")),
    "--seed": (("0", "3"), ("x",)),
    "--fabric": (("vc", "cs", "hybrid"), ("bus",)),
    "--subnets": (("2", "4"), ("1", "3", "0")),
    "--rate": (("0.05", "0.01"), ("0", "0.0001", "5", "nan")),
    "--allocator": (("greedy", "oracle"), ("lp",)),
    "--granularity": (("e2e", "r2r"), ("x",)),
}
AXES = {
    "--rates": (("0.01", "0,0.05", "0.02,0.3"), ("0.05,0.01", "5", "-1", "nan", "x", ",")),
    "--subnet-counts": (("2", "2,4", "8"), ("1", "3", "0", "x", "")),
}


@settings(max_examples=100)
@given(data=st.data())
def test_any_sweep_argv_exits_0_or_1(data):
    # one sweep axis, which a fault may leave out or give a bad value
    axis = data.draw(st.sampled_from(sorted(AXES)))
    options = dict(SWEEP, **{axis: AXES[axis]})
    run_main(["sweep"] + data.draw(argv_with_faults(options, ("--cycles", axis))))


# a valid pair profile over routers and NIs 0-3, which every drawn mesh has
PROFILE = "# src,dst,flit_count,hop_count\n0,3,40,2\n1,2,30,2\n3,0,20,2\n2,1,10,1\n0,1,5,1\n"
ALLOCATE = {
    "--generations": (("0", "5", "20"), ("-1", "x")),
    "--out": (("{tmp}/c.plan",), ()),
    "--mesh": (("2x2", "3x2", "4x4", "cmp-4x4-51ni"), ("0x2", "2x33", "x")),
    "--granularity": (("e2e", "r2r"), ("x",)),
    "--subnets": (("1", "2", "3"), ("0", "-1", "x")),
    "--method": (("greedy", "ga", "oracle"), ("lp",)),
    "--seed": (("0", "9"), ("x",)),
    "--limit": (("0", "1", "3"), ("-1", "x")),
}


@settings(max_examples=60)
@given(argv=argv_with_faults(ALLOCATE, ("--generations", "--out")))
def test_any_allocate_argv_exits_0_or_1(argv):
    with tempfile.TemporaryDirectory() as tmp:
        profile = os.path.join(tmp, "p.profile")
        with open(profile, "w", encoding="utf-8") as fh:
            fh.write(PROFILE)
        run_main(["allocate", profile] + [word.format(tmp=tmp) for word in argv])
