"""A standing seeded corpus for byte equality.

Each case is one small run of simulate, model, sweep or synthesize.
CORPUS pins, per case id, the argv and the sha256 of every file the run
writes, and every case exits 0. The test runs each pinned argv as it
stands, so adding a CLI flag or editing the fuzz pools leaves every
entry in force. A refactor leaves every entry as it is.

The argvs were drawn from a fixed seed: a base argv at small sizes, then
one or two of the command's flags, each set to a value from the
flag-pair fuzz's in-range pool (test_cli.IN_RANGE_VALUES) that the
flag's type accepts, or to one of its choices. A draw the command
rejects is drawn again, so every case pins output bytes. A change that
moves outputs by design regenerates the table with

    PYTHONPATH=src python tests/test_corpus.py

pastes what it prints over CORPUS, and says which case ids moved and why.
Regenerating draws the argvs again from the flags and pools of the day,
so a change that also alters those says so.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import tempfile
from pathlib import Path

import pytest

from mfoesim.cli import build_parser, main
from mfoesim.trace import WORKLOAD_PROFILES

CASES_PER_COMMAND = {"simulate": 40, "model": 12, "sweep": 8, "synthesize": 8}

# The replay cases read one of these traces, written once per run of the
# corpus: two cores at a uniform rate, so every fault ties with one on the
# other core; three cores with Poisson arrivals; and one gcc-profile core.
TRACES = {
    "uniform-2c": ["--rate", "5000", "--duration", "0.02", "--cores", "2", "--seed", "1"],
    "poisson-3c": ["--rate", "8000", "--duration", "0.02", "--cores", "3", "--dist", "poisson",
                   "--seed", "2"],
    "gcc-1c": ["--profile", "gcc", "--duration", "0.002", "--seed", "3"],
}

# Flags the base argv sizes from its own small pools; a value of 16 from
# the in-range pool would multiply the run instead.
_SIZING = {
    "simulate": {"--threads", "--faults-per-thread", "--region-pages"},
    "model": set(),
    "sweep": set(),
    "synthesize": {"--duration", "--cores"},
}


def _value_pools(command: str) -> dict[str, tuple[str, ...]]:
    """The values each drawn flag of command takes: its choices, the
    profile names, or the in-range values its type parses."""
    from test_cli import IN_RANGE_VALUES, _fuzz_flags

    int_values = tuple(v for v in IN_RANGE_VALUES if v.isdigit())
    actions = {
        opt: action for action in build_parser().subcommand_parsers[command]._actions
        for opt in action.option_strings
    }
    pools = {}
    for flag in _fuzz_flags(command):
        if flag in _SIZING[command]:
            continue
        action = actions[flag]
        if action.choices:
            pools[flag] = tuple(action.choices)
        elif flag == "--profile":
            pools[flag] = tuple(sorted(WORKLOAD_PROFILES))
        elif flag == "--params-baseline-fault-dist":
            pools[flag] = ("lognormal", "two_point", "constant")
        elif getattr(action.type, "__name__", "") in ("int", "_csv_ints"):
            pools[flag] = int_values
        else:
            pools[flag] = IN_RANGE_VALUES
    return pools


def _base(command: str, rng: random.Random) -> list[str]:
    pick = rng.choice
    if command == "simulate":
        argv = ["--threads", pick("1234"), "--faults-per-thread", pick(("64", "128", "256")),
                "--table-width", pick(("4", "8", "16", "32")),
                "--interarrival", pick(("500", "3000", "21000")),
                "--refresh-interval-ms", pick(("0.01", "0.05", "0.2")), "--seed", pick("01234567")]
        if rng.random() < 0.5:
            argv += ["--region-pages", pick(("16", "48", "96"))]
        return argv
    if command == "synthesize":
        return ["--rate", pick(("1000", "4000")), "--duration", pick(("0.005", "0.01")),
                "--cores", pick("123"), "--seed", pick("01234567")]
    argv = ["--trace", "{%s}" % pick(sorted(TRACES))]
    if command == "model":
        return argv + ["--width", pick(("4", "8", "16", "64")),
                       "--refresh-interval-ms", pick(("0.05", "0.2", "1"))]
    widths = rng.sample(("4", "8", "16", "64"), 2)
    intervals = rng.sample(("0.05", "0.2", "1"), 2)
    return argv + ["--widths", ",".join(widths), "--intervals-ms", ",".join(intervals)]


def write_traces(directory: Path) -> dict[str, str]:
    """Write every trace of TRACES under directory; name -> path."""
    paths = {}
    for name, argv in TRACES.items():
        out = directory / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synthesize", *argv, "--out-dir", str(out)]) == 0
        paths[name] = str(out / "trace.csv")
    return paths


def run_case(argv: list[str], traces: dict[str, str], out: Path) -> tuple[int, dict[str, str]]:
    """The exit code of argv, run in process, and the sha256 of every file
    it wrote under out."""
    argv = [arg.format(**traces) for arg in argv] + ["--out-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    files = sorted(out.iterdir()) if out.is_dir() else []
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def draw_corpus(directory: Path) -> dict[str, tuple[list[str], dict[str, str]]]:
    """Case id -> (argv, sha256 per output file), drawn from a fixed seed
    and run under directory. A draw that does not exit 0 with output is
    drawn again. Trace paths are written as {name} placeholders."""
    traces = write_traces(directory)
    corpus = {}
    for command, count in CASES_PER_COMMAND.items():
        rng = random.Random(f"byte corpus {command}")
        pools = _value_pools(command)
        flags = sorted(pools)
        for i in range(count):
            case_id = f"{command}-{i:02d}"
            for attempt in itertools.count():
                argv = [command, *_base(command, rng)]
                for flag in rng.sample(flags, rng.choice((1, 2))):
                    argv += [flag, rng.choice(pools[flag])]
                code, files = run_case(argv, traces, directory / f"{case_id}.{attempt}")
                if code == 0 and files:
                    break
            corpus[case_id] = (argv, files)
    return corpus


# Regenerated by running this file; see the module docstring.
CORPUS = {
    'simulate-00': (
        'simulate --threads 4 --faults-per-thread 64 --table-width 8 --interarrival 500 --refresh-interval-ms 0.05 --seed 7 --region-pages 48 --stride 1 --interarrival 16',
        {
            'faults.csv': '80bc84db2f7893136b53dfce40e85a563b4d33641b7509e1b6d3a130b05a3839',
            'report.json': '1a62e61bed478e0c67d9e9c7900279cb6ab6d5eb0cc0a1af9faf63d07b9b86b1',
        }),
    'simulate-01': (
        'simulate --threads 3 --faults-per-thread 256 --table-width 8 --interarrival 3000 --refresh-interval-ms 0.2 --seed 7 --region-pages 16 --refresh-interval-ms 2',
        {
            'faults.csv': '648811f18cd4cb5b7f5001831d28e1886ea8273a6abb0026178dc410e1e3f9b7',
            'report.json': '94aed543fa024d48952bd72d40b153d14c497cec6b15e58b1fb15090fcf22dc0',
        }),
    'simulate-02': (
        'simulate --threads 3 --faults-per-thread 256 --table-width 32 --interarrival 21000 --refresh-interval-ms 0.2 --seed 5 --refresh-interval-ms 3',
        {
            'faults.csv': '4b48c2824e850117672a1704969242826a0f545da2f30fb9af626f94c01aac5c',
            'report.json': '3cc7c13ac0d69734325a2d24cf905b0cb72eb24455547bd507e0a358f1861425',
        }),
    'simulate-03': (
        'simulate --threads 2 --faults-per-thread 64 --table-width 32 --interarrival 21000 --refresh-interval-ms 0.2 --seed 1 --region-pages 48 --seed 2',
        {
            'faults.csv': '0d77687f5187c2691088df7c974ac5003cb16805566f074479551537fa01044a',
            'report.json': 'a8b8de9795385be24b821fd54d3326d2140dcfe3d46b9ef44b8ce782dcaa1819',
        }),
    'simulate-04': (
        'simulate --threads 3 --faults-per-thread 256 --table-width 32 --interarrival 21000 --refresh-interval-ms 0.05 --seed 1 --region-pages 16 --params-clock-hz 2',
        {
            'faults.csv': 'e01467b796f808c70e58eb557727250f98f03463932cf249fc89ccd5049d4baf',
            'report.json': '7d317afb1e6cbe4542bbe38c62c89c6d44af6f711932ef73c1ce177d613dcecd',
        }),
    'simulate-05': (
        'simulate --threads 4 --faults-per-thread 64 --table-width 8 --interarrival 3000 --refresh-interval-ms 0.2 --seed 3 --params-mfoe-hit-cycles 3 --interarrival 3',
        {
            'faults.csv': '4c32ac67e540fc48cb3bee164cfe0b4cfa367b70bc2c2c4fc7a32cb4d15942af',
            'report.json': 'ecff05335deb0d5408c3af8fca4b6b279121a3600e4387171799725d01abd654',
        }),
    'simulate-06': (
        'simulate --threads 1 --faults-per-thread 64 --table-width 16 --interarrival 21000 --refresh-interval-ms 0.05 --seed 3 --interarrival 16 --params-init-throughput-pages-per-s 16',
        {
            'faults.csv': '37dec3c7f45f40ccfc13fbdcddaa3541c5a0aa8d7b0b8607b5186d31384155ab',
            'report.json': 'e448115c87d6ae60905d5ab4bcff959db9ebf0b912a904fa9ec30875ad8058c2',
        }),
    'simulate-07': (
        'simulate --threads 4 --faults-per-thread 256 --table-width 32 --interarrival 3000 --refresh-interval-ms 0.05 --seed 2 --region-pages 16 --seed 2 --params-clock-hz 16',
        {
            'faults.csv': '1c7e4d5295e0ccf734a5f25b770f195351fc9358ed6987abc7ef24e8002aa2b4',
            'report.json': '8b8f33e6075cb4f04e35ae738a26a9211063811c65296bbb80983f1e66cf107e',
        }),
    'simulate-08': (
        'simulate --threads 4 --faults-per-thread 128 --table-width 16 --interarrival 3000 --refresh-interval-ms 0.01 --seed 4 --region-pages 48 --interarrival 2 --params-background-throughput-pages-per-s 3',
        {
            'faults.csv': '4fa13e5f8228920a0c84a88dab97758149eba4c666a7a61eb085843fe2134a9c',
            'report.json': 'b3a59e18e04a35d448f06badfbb7018046da679d3497dd28c49c76e63b5cda70',
        }),
    'simulate-09': (
        'simulate --threads 2 --faults-per-thread 64 --table-width 32 --interarrival 3000 --refresh-interval-ms 0.05 --seed 1 --tlb-entries 3',
        {
            'faults.csv': '65af8e9e4c6a72a95369241fb62400f226b2a65ae4cfe32d5ac096ec6bbc0c81',
            'report.json': '5481be56f6ba007641ba72d455e617160e38baaf1e17995ce0b012aa6d112812',
        }),
    'simulate-10': (
        'simulate --threads 1 --faults-per-thread 256 --table-width 8 --interarrival 3000 --refresh-interval-ms 0.01 --seed 0 --refresh-interval-ms 3',
        {
            'faults.csv': '982410e06f75891d4732c5a8f9618f31c7136e39b5b6b0f90856cd4583b7d459',
            'report.json': '77ac4d88de44d6be4f101b1fb1760bb4dbcfb3894951cddc1b2e621de39e1e49',
        }),
    'simulate-11': (
        'simulate --threads 3 --faults-per-thread 64 --table-width 4 --interarrival 500 --refresh-interval-ms 0.2 --seed 7 --quota-frames 16',
        {
            'faults.csv': '0514c9cdd5b22a5b9d1faeda8ba0d872fc0c4a34cca0884bc7fb40cff88446c9',
            'report.json': '091170a38d2cf7c3a9d87bb413460fcbe0b3b4e9d8f9d4e6c781623c186da183',
        }),
    'simulate-12': (
        'simulate --threads 3 --faults-per-thread 128 --table-width 16 --interarrival 500 --refresh-interval-ms 0.01 --seed 0 --quota-frames 3',
        {
            'faults.csv': '9530d4d712f0b3dbd25ee6c94851ca77204cba060507c2fd02af32da35ecfc88',
            'report.json': '1512a53a85d12cb119f435238508c78b5ab07dd2990852967aeb2e2fceb84640',
        }),
    'simulate-13': (
        'simulate --threads 2 --faults-per-thread 64 --table-width 16 --interarrival 500 --refresh-interval-ms 0.2 --seed 5 --region-pages 96 --params-baseline-fault-dist two_point --resource-threshold 1',
        {
            'faults.csv': '403c4a168970aea18ff844ed5e92362b45583eb1361034671f9f9d82e8b72001',
            'report.json': '1ede97b905db46a8b3548d5990069e40b652a61a0cf9ff686dcd3f6d202969c5',
        }),
    'simulate-14': (
        'simulate --threads 1 --faults-per-thread 64 --table-width 8 --interarrival 500 --refresh-interval-ms 0.01 --seed 1 --tlb-entries 2 --params-init-throughput-pages-per-s 16',
        {
            'faults.csv': '44d862daab87eec3d8b65d7e3eaa36aa8152809b951c3cb6821d805d944045fd',
            'report.json': '4e535f40520670dd6f45ead9f99d370049e4d773401c255555899f513aa0d424',
        }),
    'simulate-15': (
        'simulate --threads 3 --faults-per-thread 256 --table-width 16 --interarrival 500 --refresh-interval-ms 0.05 --seed 5 --region-pages 48 --interarrival 2',
        {
            'faults.csv': '7e2ff9745c9ee4a2ad4137c7300ae3a3c75e9c12095aebae872521ab7c1f75de',
            'report.json': 'cae6905c245f3ba4043f1acce829efea987787ad283aa8cd9a9f913089f87b5d',
        }),
    'simulate-16': (
        'simulate --threads 2 --faults-per-thread 64 --table-width 8 --interarrival 3000 --refresh-interval-ms 0.05 --seed 4 --region-pages 48 --refresh-interval-ms 2 --interarrival 16',
        {
            'faults.csv': '767a907b970f78b9d8bf43d7453b838bf81c0e98107b3cf9a810cfdc91c284eb',
            'report.json': '05b2b4963822bf3f997a7798cc64f260c77a2e588072a4138431b67ee35bd99c',
        }),
    'simulate-17': (
        'simulate --threads 1 --faults-per-thread 64 --table-width 16 --interarrival 3000 --refresh-interval-ms 0.01 --seed 7 --params-clock-hz 1 --params-background-throughput-pages-per-s 16',
        {
            'faults.csv': '6079f96c523d71eefc7e80a0fd4dc128018b1ea1ee7002d1e10f3cad04bc662c',
            'report.json': '353866ffd6d142904c203fb0d79b3d8accd90954705273eac7411d74d287836f',
        }),
    'simulate-18': (
        'simulate --threads 2 --faults-per-thread 128 --table-width 32 --interarrival 3000 --refresh-interval-ms 0.01 --seed 3 --params-background-throughput-pages-per-s 1 --params-mfoe-miss-penalty-cycles 16',
        {
            'faults.csv': '7f0903344e1702a8147735c5d35896b87357f067c05c159f21573857277bba46',
            'report.json': '1042a794cbb6d19a05b3eee8b9388d3a23f72df5ca3da3ff4b8451220b26969c',
        }),
    'simulate-19': (
        'simulate --threads 1 --faults-per-thread 256 --table-width 4 --interarrival 500 --refresh-interval-ms 0.2 --seed 3 --quota-frames 1',
        {
            'faults.csv': '8e763ded2196160d5c35e71f468b3cfde90f9f762d16f6591d525cbea76ea223',
            'report.json': '73a706d69860011016108d2441f91f3a4dae95643085ba3f22e307c72be31300',
        }),
    'simulate-20': (
        'simulate --threads 4 --faults-per-thread 64 --table-width 4 --interarrival 3000 --refresh-interval-ms 0.2 --seed 2 --region-pages 16 --seed 16',
        {
            'faults.csv': '35f8d62ba7f2e42403566ae3c0d82fdfd0dd63e4c3a5851cb62216af7ed87c09',
            'report.json': '238b7ae0e001897158ee5a8402f8a8c1f238e481a0da0afab2894dc25711ff57',
        }),
    'simulate-21': (
        'simulate --threads 3 --faults-per-thread 256 --table-width 4 --interarrival 500 --refresh-interval-ms 0.05 --seed 7 --region-pages 96 --params-mfoe-miss-penalty-cycles 16',
        {
            'faults.csv': '9f2264abd578db7cd3e9f8e6b188ab8ac0e7a74a9446afc042dc374dd1ee9d6b',
            'report.json': '06567c91236202cc8145e9e94f3777501621b9e292377d8532efb95d6ea6b2b0',
        }),
    'simulate-22': (
        'simulate --threads 4 --faults-per-thread 64 --table-width 8 --interarrival 21000 --refresh-interval-ms 0.01 --seed 6 --tlb-entries 2',
        {
            'faults.csv': '7397cd9dda08db905894bfcf807e9f15c16c5e56536c9785e07667d16fdb581f',
            'report.json': 'e61aae93edbf42e1069063ff7b83fd5f9b0eab8b50358f26575b068957af8ab1',
        }),
    'simulate-23': (
        'simulate --threads 1 --faults-per-thread 256 --table-width 8 --interarrival 3000 --refresh-interval-ms 0.2 --seed 5 --params-mfoe-hit-cycles 1',
        {
            'faults.csv': '30daf5c0cd33f3599195ff059036c648f7851763a13df529ed180d1aa86f14a2',
            'report.json': '9f002ffcab4f79669607c31973fb1f67fee118b0aeceb58c36a6609b3bf957c3',
        }),
    'simulate-24': (
        'simulate --threads 4 --faults-per-thread 64 --table-width 4 --interarrival 21000 --refresh-interval-ms 0.2 --seed 1 --params-mfoe-hit-cycles 1',
        {
            'faults.csv': 'f205cc4204e0c914f7a1074c54b18a06d92577cd0e31102dbbb73b61ae809620',
            'report.json': 'e7cafc70ccc69a124ea5853a3f73672505b3e7079b77fbecc21628c726849556',
        }),
    'simulate-25': (
        'simulate --threads 2 --faults-per-thread 128 --table-width 4 --interarrival 3000 --refresh-interval-ms 0.05 --seed 0 --params-mfoe-hit-cycles 2 --cores 3',
        {
            'faults.csv': '90cab6838894be6e4748deab843c798936196ce4e33a07c1453dd179ab2acc5c',
            'report.json': '9635c1a8f30efe2edf58965785ff505e2a277e3c050d4a842b02072130707268',
        }),
    'simulate-26': (
        'simulate --threads 2 --faults-per-thread 256 --table-width 16 --interarrival 500 --refresh-interval-ms 0.2 --seed 3 --params-mfoe-miss-penalty-cycles 3',
        {
            'faults.csv': '5dba5818d4b2496a1f2a57e3943254feda68b522d59f622b2f705cfbf178e4da',
            'report.json': '096c3e03b8efae126f26931f5470cb6d8d4f1b46911b0e314b6b213921f25bb5',
        }),
    'simulate-27': (
        'simulate --threads 2 --faults-per-thread 256 --table-width 32 --interarrival 21000 --refresh-interval-ms 0.05 --seed 4 --refresh-interval-ms 2',
        {
            'faults.csv': 'b6d358496b347a367d5c9c240ab3f76a8bc42ed36d11bb037400a9c77b23ac92',
            'report.json': '05ff4e096d4676e1719e75f2d849bf21f85cb1483b13bf16a39a83dc3b34fb99',
        }),
    'simulate-28': (
        'simulate --threads 3 --faults-per-thread 64 --table-width 8 --interarrival 500 --refresh-interval-ms 0.01 --seed 1 --region-pages 48 --params-clock-hz 2',
        {
            'faults.csv': '9b0c3b40d754b2ff77b6f98ea667ddec9094bb39a7d4449fa8d2630da72e93c7',
            'report.json': 'e42ee595488098aaf1160bf7a7e49cbc0e3734eb3d430d114a6075a284c9142a',
        }),
    'simulate-29': (
        'simulate --threads 3 --faults-per-thread 64 --table-width 8 --interarrival 3000 --refresh-interval-ms 0.2 --seed 0 --resource-threshold 0.5',
        {
            'faults.csv': 'b75fd6b8f0fc4ebc5e9e174c6add4bb2d63629494251f51735e2ec23e356d5db',
            'report.json': 'de7e9b9df988c256053ee782b87524e0e24ae1534e0ef2901d9952526d53c3c8',
        }),
    'simulate-30': (
        'simulate --threads 1 --faults-per-thread 64 --table-width 8 --interarrival 21000 --refresh-interval-ms 0.05 --seed 6 --tlb-entries 2',
        {
            'faults.csv': 'f2023b2f68cb4c8755934039e87f49b5ce3d1af73dbacfec4e48b1f328396b13',
            'report.json': 'f9a6058f8d193f27465291f7563d0b031e794dfa6211ec0c8c7910f3c5a7b978',
        }),
    'simulate-31': (
        'simulate --threads 1 --faults-per-thread 256 --table-width 16 --interarrival 21000 --refresh-interval-ms 0.01 --seed 1 --tlb-entries 3',
        {
            'faults.csv': 'e487ddc52ffcba31a9c8479a23c13d9d38cd86be7ea2850c14bd5852bfe1fd6f',
            'report.json': 'aab726cf3b19f03bd048b6c667d0d7ccc6926f720df19d6ccfda132b70f2972e',
        }),
    'simulate-32': (
        'simulate --threads 3 --faults-per-thread 64 --table-width 8 --interarrival 500 --refresh-interval-ms 0.05 --seed 2 --region-pages 16 --params-background-throughput-pages-per-s 16 --stride 3',
        {
            'faults.csv': '52efa305cec1a5ad8fbaa9e8b095bd2a65e1981b3fd84188c0cf34ab61a60a9d',
            'report.json': '420b9c45467d40f16b1753c5935f1acb5745f7fa70a5526e74ac179d98c6bb9c',
        }),
    'simulate-33': (
        'simulate --threads 2 --faults-per-thread 64 --table-width 32 --interarrival 500 --refresh-interval-ms 0.2 --seed 3 --region-pages 48 --quota-frames 3 --resource-threshold 1',
        {
            'faults.csv': 'a3a2e65d2202597cebbca43d12f2f61924792dfe71bd8c145bf406e04a3e66dd',
            'report.json': 'c85db9fba0bc1c816fe3e0c2213edd8f164285d7402d9adfe5755aacd2bf87ed',
        }),
    'simulate-34': (
        'simulate --threads 3 --faults-per-thread 128 --table-width 4 --interarrival 500 --refresh-interval-ms 0.01 --seed 7 --refresh-interval-ms 2 --params-background-throughput-pages-per-s 1',
        {
            'faults.csv': '9be7541d2cdcf7162958706faab1253bc3d682b4998bde54b5bade4212a7f416',
            'report.json': '8fa6bdf16b7585c73a956f9b966661a3cb02a61899e47fd0f089994a18263fb0',
        }),
    'simulate-35': (
        'simulate --threads 4 --faults-per-thread 64 --table-width 32 --interarrival 500 --refresh-interval-ms 0.01 --seed 7 --region-pages 48 --params-background-throughput-pages-per-s 2',
        {
            'faults.csv': 'd6c47a39ff9294c4a71f4d5d0e1960d83f41fa4b365566aac3f4aed38505cb6a',
            'report.json': '77bc7f54175ce30e05af2a81e01fc78b5b806984b3723419b538088ff2410b47',
        }),
    'simulate-36': (
        'simulate --threads 3 --faults-per-thread 64 --table-width 4 --interarrival 500 --refresh-interval-ms 0.01 --seed 2 --seed 3',
        {
            'faults.csv': '18f33134d1b5f00be0c06201f07ab7074c651120d44638c1743ffe193782b49f',
            'report.json': '222bab98f821b3786eaac6aa0d81647eadc92e1ad4d3ae8de9669eedbaf287f2',
        }),
    'simulate-37': (
        'simulate --threads 4 --faults-per-thread 64 --table-width 4 --interarrival 21000 --refresh-interval-ms 0.2 --seed 3 --region-pages 16 --params-mfoe-hit-cycles 1',
        {
            'faults.csv': '5e5cc8d625c953afa53aa70d4bebcb42f884e6bc90eef2d87dbdbef6a3629624',
            'report.json': 'a1404291ac4653e2d5cdc0d29f7931b7134dbfc611b9554175ea65572166c330',
        }),
    'simulate-38': (
        'simulate --threads 2 --faults-per-thread 64 --table-width 16 --interarrival 21000 --refresh-interval-ms 0.2 --seed 1 --region-pages 16 --params-background-throughput-pages-per-s 3 --seed 3',
        {
            'faults.csv': '64f33cb3b8d22805c180ec8d901034a8ba7e225985dabe424b5b31cf3310df3e',
            'report.json': 'faba83ce7b7f78970787c8be8752fc66796fdc9a248107a4bcf415a3f77382c7',
        }),
    'simulate-39': (
        'simulate --threads 4 --faults-per-thread 64 --table-width 32 --interarrival 3000 --refresh-interval-ms 0.01 --seed 1 --params-background-throughput-pages-per-s 1 --tlb-entries 16',
        {
            'faults.csv': '353713c7282195d018862336f9b211fa27cfd668123d1693ec23199d832c774f',
            'report.json': '8a7588c469618f53c7031e2ecf4be3820581d5abbe58f18e6f9c42cf6e73dacb',
        }),
    'model-00': (
        'model --trace {uniform-2c} --width 64 --refresh-interval-ms 0.05 --params-background-throughput-pages-per-s 3',
        {
            'model_report.json': '6e5ad3665aca9c8000facc4e80d4df6bcf6f29d35633da13b75df48b36260f27',
            'timeline.csv': 'fea42f8d058b4347c9f6fec2ac05e23e35be732ecccf2fdc673b4405def10ee2',
        }),
    'model-01': (
        'model --trace {gcc-1c} --width 4 --refresh-interval-ms 0.05 --params-init-throughput-pages-per-s 3',
        {
            'model_report.json': '594f5ad1e4b8c0fa472898502fb7eba9dfce82a1cec865160cdd1b0a6d4ac786',
            'timeline.csv': 'cd9ca6b49fb12d33e67b0c567c12b374aa51e518f8745ec1a9b682c94cc7fc7f',
        }),
    'model-02': (
        'model --trace {gcc-1c} --width 4 --refresh-interval-ms 0.2 --params-init-throughput-pages-per-s 3',
        {
            'model_report.json': 'a25bcf2dde5139c9168eff006b04d3082e8cba382e3d5810ed09e167d0c7326e',
            'timeline.csv': 'cd9ca6b49fb12d33e67b0c567c12b374aa51e518f8745ec1a9b682c94cc7fc7f',
        }),
    'model-03': (
        'model --trace {uniform-2c} --width 4 --refresh-interval-ms 1 --params-mfoe-miss-penalty-cycles 1 --params-mfoe-hit-cycles 16',
        {
            'model_report.json': '7a8f6c702a4d67561f0affc44ce2942618863164a463f6756ccd424f234fbe49',
            'timeline.csv': '24cc07236fb59db1031575152c2eb8d5ea206f045f753bac966ddd4dd31dd016',
        }),
    'model-04': (
        'model --trace {poisson-3c} --width 4 --refresh-interval-ms 1 --params-mfoe-hit-cycles 1',
        {
            'model_report.json': '172e71e7761f5567e667b133baf901e04c1f6926daf9e222d0be6eb5a4887c93',
            'timeline.csv': '207c2e2ba91212ca4df48c7e684cc06dbcb8a1df62ec4e5901ed93860f339732',
        }),
    'model-05': (
        'model --trace {gcc-1c} --width 8 --refresh-interval-ms 0.2 --params-background-throughput-pages-per-s 16 --params-clock-hz 16',
        {
            'model_report.json': 'f2204dc73bb9637e2d1979a3789c1ae36e3f5af1b4049e6356d0e0bf53168d3d',
            'timeline.csv': '8d2f812d4a9014036db305b66fabf49ac1ce8d3dd1a4c359f3fcf7be04b80ab7',
        }),
    'model-06': (
        'model --trace {gcc-1c} --width 4 --refresh-interval-ms 1 --cores 3 --params-background-throughput-pages-per-s 16',
        {
            'model_report.json': 'c9750aba923a1ea81957e259a1b9b41520f9dc61f3f9b8dfd16e450d17541f3d',
            'timeline.csv': '77101c229ad747641c4bdf5c5cd9b8e2c52a795384e8a70ec064eb91fae9ac3c',
        }),
    'model-07': (
        'model --trace {poisson-3c} --width 16 --refresh-interval-ms 0.05 --params-clock-hz 16 --params-init-throughput-pages-per-s 3',
        {
            'model_report.json': 'aadd599312517d9e2e84ed3cc7d775b0a1178f4564a80b1b6857abcc9304d37f',
            'timeline.csv': 'bbaff3ec3c1e6d4131f2fb0e687a22e099db9b04ded8c826f29dde5b2223323d',
        }),
    'model-08': (
        'model --trace {gcc-1c} --width 4 --refresh-interval-ms 0.2 --params-mfoe-hit-cycles 16',
        {
            'model_report.json': 'c4d4beef65b37ff84b8159775463370b6c04713a5051a3c3c18a8693f0028a64',
            'timeline.csv': 'ffac3da61b33bddb20eac0878d7c1d511dbc689a3ffbd2e12ac587c8c7ba3dd8',
        }),
    'model-09': (
        'model --trace {uniform-2c} --width 16 --refresh-interval-ms 0.2 --params-mfoe-hit-cycles 3',
        {
            'model_report.json': 'e28ddf92e0da38d8ea1ed50e62a90b06dd6da32ced3660fda3d919242a139608',
            'timeline.csv': 'd42af2f3a6cf3288e59ceedf6e8a6f2f7d1d4bd4ab55413d3edb2dacde075c72',
        }),
    'model-10': (
        'model --trace {uniform-2c} --width 64 --refresh-interval-ms 0.05 --params-init-throughput-pages-per-s 2',
        {
            'model_report.json': 'ed28f5bca2d8ffbf5d26af4d2d493f5fcead928a63bb102a1c84cf6d6cc983da',
            'timeline.csv': '1a7dc55ffdfcfc1a18111e78abd894ce41a549e13162b8675de5d73a1b1a9713',
        }),
    'model-11': (
        'model --trace {gcc-1c} --width 64 --refresh-interval-ms 0.2 --params-background-throughput-pages-per-s 16',
        {
            'model_report.json': '8ecfdc64d697e0a2a49a730cfae47805687137e7af5500d59a172ef9a2c033b2',
            'timeline.csv': '7d9b9f6202f3b515a9bdeaac6c20cb2808c60c277b6e545df53a23fd37621888',
        }),
    'sweep-00': (
        'sweep --trace {uniform-2c} --widths 16,64 --intervals-ms 0.2,0.05 --params-init-throughput-pages-per-s 3 --params-mfoe-miss-penalty-cycles 3',
        {
            'sweep.csv': '3c08ce77cdf59e8a0f7ca504471aa1358588fc4781343047e0f8f16bf80999fd',
            'sweep.json': '72af3a6e19a571bc76a33fa161cb3065b21570fd682a969f4cd750bdf3c6341d',
        }),
    'sweep-01': (
        'sweep --trace {uniform-2c} --widths 16,4 --intervals-ms 0.2,1 --params-mfoe-hit-cycles 16 --params-init-throughput-pages-per-s 3',
        {
            'sweep.csv': '900e4b4a2ed4b4b46ce15a978af4e51340d1f729f02db6bb82f1fc014a029946',
            'sweep.json': '41eb8b47b34c356170c994ee4a315f219efbdbd3aef715afce5eff3cda5669fa',
        }),
    'sweep-02': (
        'sweep --trace {gcc-1c} --widths 4,64 --intervals-ms 1,0.05 --params-mfoe-miss-penalty-cycles 16',
        {
            'sweep.csv': '3633a2b7d38d264fb97b863a112f1ceec0052dc6cfde6cacf088234cca504c01',
            'sweep.json': '0598de96ab4aaf3ead0434cc0506836961df69a2702e7d9aef08a0ae54ecd8f9',
        }),
    'sweep-03': (
        'sweep --trace {uniform-2c} --widths 8,16 --intervals-ms 0.05,1 --cores 2',
        {
            'sweep.csv': '7ce93e506cbc910323cae7794cb852980ac6bd40c29b4f1153363f5adb552891',
            'sweep.json': '9a0117b7277ad75c380ed3af2aede9c6530cb2de70b25107ac2a6933715dcdc9',
        }),
    'sweep-04': (
        'sweep --trace {poisson-3c} --widths 4,16 --intervals-ms 0.2,0.05 --intervals-ms 1',
        {
            'sweep.csv': '00dc713ec29dd14561c5a2b697f7dc5bdb88296675907135b1863575385a896a',
            'sweep.json': '66ae11e5e86dcc60de6c04f858c3db31cf008defcb3092e127aa0c084a6b4e93',
        }),
    'sweep-05': (
        'sweep --trace {poisson-3c} --widths 4,16 --intervals-ms 1,0.2 --params-mfoe-hit-cycles 1 --params-background-throughput-pages-per-s 16',
        {
            'sweep.csv': '757a4c1c358ac5672c8163767cf0f7925aa1ea5431d3ed6294d951c5276beb4c',
            'sweep.json': '70c382e0a71e525ce39c6e665b719bf9f6b5cfb56abdf9e46894cbf7b994c3de',
        }),
    'sweep-06': (
        'sweep --trace {uniform-2c} --widths 64,8 --intervals-ms 1,0.05 --params-mfoe-hit-cycles 3',
        {
            'sweep.csv': '124dcfecf7fdb494e890e2c2aac74b36baa408e0c29a310ebca8246ec3c60ed6',
            'sweep.json': '1034fbdf2855e75584479f71b69cd8438112ecde051993890cc125ea3af569c9',
        }),
    'sweep-07': (
        'sweep --trace {poisson-3c} --widths 8,16 --intervals-ms 1,0.2 --params-background-throughput-pages-per-s 2',
        {
            'sweep.csv': 'b36481a564731cb9336d90fd7e2de8f616cbffe6db5544d3331513bc467fe36b',
            'sweep.json': '2c3aff8a083b6bbc56093e11ebf623c607d6331d72c229b5dc03d9cf82bb2f43',
        }),
    'synthesize-00': (
        'synthesize --rate 4000 --duration 0.005 --cores 2 --seed 3 --dist uniform --profile dedup',
        {
            'trace.csv': '5ca49baba5ea9765950b761deb8789f5c02e22377ff0da0ba97d169fd8cd4d04',
        }),
    'synthesize-01': (
        'synthesize --rate 4000 --duration 0.01 --cores 3 --seed 4 --profile gcc',
        {
            'trace.csv': '1e14b1aaaa683a079bc795c966b402fb17b8a40c0c3c464bf478dce64fc9faae',
        }),
    'synthesize-02': (
        'synthesize --rate 4000 --duration 0.01 --cores 2 --seed 6 --profile xsbench',
        {
            'trace.csv': 'a66f907fc90cad87142581c30a5b4756e94324f46157f51c5f9e5f931830a2a6',
        }),
    'synthesize-03': (
        'synthesize --rate 1000 --duration 0.01 --cores 3 --seed 1 --rate 2',
        {
            'trace.csv': '138e31a02e1ef4fcf784789707a46f5a653c2a4a3e28c6ec3cfa36844b8aeff1',
        }),
    'synthesize-04': (
        'synthesize --rate 4000 --duration 0.005 --cores 2 --seed 2 --dist uniform',
        {
            'trace.csv': 'b2744c29aff4ca2fb6095e41369586c584ff5b466aaf83a48c70cf66ed764ed5',
        }),
    'synthesize-05': (
        'synthesize --rate 4000 --duration 0.01 --cores 1 --seed 7 --seed 3 --rate 2',
        {
            'trace.csv': 'c0671d95533204d72bf71d31831b0110b6341140362070230906f6f6ce9a9eda',
        }),
    'synthesize-06': (
        'synthesize --rate 1000 --duration 0.005 --cores 1 --seed 6 --rate 2 --seed 16',
        {
            'trace.csv': '10ce30c73c4e6965eb3bc44dc360e1b70960edf984852c8aa212705912353aef',
        }),
    'synthesize-07': (
        'synthesize --rate 4000 --duration 0.01 --cores 2 --seed 1 --seed 1',
        {
            'trace.csv': '9c101d2b9459af15b141be48af9f1edd1ec805bcde90cde11cbdc978e5c1778b',
        }),
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    return write_traces(tmp_path_factory.mktemp("corpus-traces"))


@pytest.mark.parametrize("case_id", sorted(CORPUS))
def test_corpus_case_is_byte_identical(tmp_path, traces, case_id):
    argv, files = CORPUS[case_id]
    assert run_case(argv.split(), traces, tmp_path / "out") == (0, files)


def test_corpus_holds_every_command_and_each_case_pins_files():
    for command, count in CASES_PER_COMMAND.items():
        pinned = [files for case_id, (_, files) in CORPUS.items()
                  if case_id.startswith(command + "-")]
        assert len(pinned) == count and all(pinned)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print("CORPUS = {")
        for case_id, (argv, files) in draw_corpus(Path(scratch)).items():
            print(f"    {case_id!r}: (")
            print(f"        {' '.join(argv)!r},")
            print("        {")
            for name, digest in files.items():
                print(f"            {name!r}: {digest!r},")
            print("        }),")
        print("}")
