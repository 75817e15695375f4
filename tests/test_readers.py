"""Every file reader is total: a file its writer made, then truncated, with
bytes flipped or junk inserted, is read or refused with ValueError, never
another exception, and reading it allocates at most a bound linear in the
file's size."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from measim import data, evaluate, imputer, masks, nn, policy, training

# bytes the formats are built from, so a mutation can also make a file that
# parses further than random bytes would
TOKENS = [b",", b"\n", b"\r\n", b"#", b"=", b"-", b".", b"e", b"nan", b"inf", b"1e999",
          b"0", b"1", b"9" * 12, b"\x00", b"\xff", b"gt0", b"v0", b"m0", b"true"]


@st.composite
def mutated(draw, original: bytes) -> bytes:
    """original after one to three truncations, byte flips or insertions."""
    out = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(out)))
        kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
        if kind == "truncate":
            del out[pos:]
        elif kind == "flip" and pos < len(out):
            out[pos] ^= draw(st.integers(1, 255))
        else:
            junk = draw(st.one_of(st.binary(min_size=1, max_size=12), st.sampled_from(TOKENS)))
            out[pos:pos] = junk
    return bytes(out)


def read_within_bound(read, path, size: int) -> None:
    """read(path) returns or raises ValueError, and its allocation peak stays
    under 32 bytes per file byte plus 512 KiB."""
    tracemalloc.start()
    try:
        read(path)
    except ValueError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= 32 * size + 512 * 1024, (peak, size)


def small_imputer():
    return imputer.build_imputer(4, "image", noise_dim=2, hidden=(6,),
                                 rng=np.random.default_rng(0))


def small_policy():
    return policy.build_policy(4, actor_hidden=(6,), critic_hidden=(5,),
                               rng=np.random.default_rng(1))


def write_missing_csv(path):
    rng = np.random.default_rng(2)
    truth = rng.normal(size=(5, 4))
    m = (rng.random((5, 4)) < 0.5).astype(np.float64)
    masks.save_missing_csv(masks.MissingDataset(truth * m, m, truth), path)


def write_run_csv(path):
    stats = [training.IterationStats(i, -0.5 + i, -0.25, 0.1, 0.2, 0.3) for i in range(3)]
    training.write_run_csv(training.RunRecord(training.JointConfig(), stats,
                                              {"actor": "ab" * 16}), path)


def write_sweep_csv(path):
    rows = [evaluate.EvalRow("proposed", 0.8, 0.3, 0.2, 10, s, trained_rate=0.8)
            for s in range(3)]
    evaluate.write_sweep_csv(evaluate.EvalReport(rows), path)


def write_idx(path):
    images = np.random.default_rng(3).random((3, 16))
    data.write_idx_images(path, images, rows=4, cols=4)


def write_actor(path):
    policy.save_policy(small_policy(), path, str(path) + ".critic")


def write_critic(path):
    policy.save_policy(small_policy(), str(path) + ".actor", path)


def policy_reader(role):
    """load_policy with the mutated file in role's place and a good other."""
    def read(path):
        good = small_policy()
        other = str(path) + ".good"
        if role == "actor":
            nn.save_checkpoint(good.critic, other, role=nn.ROLE_CRITIC)
            return policy.load_policy(path, other)
        nn.save_checkpoint(good.actor, other, role=nn.ROLE_ACTOR)
        return policy.load_policy(other, path)
    return read


READERS = {
    "load_missing_csv": (write_missing_csv, masks.load_missing_csv),
    "parse_config": (lambda path: training.write_config(training.JointConfig(), path),
                     training.load_config),
    "load_imputer": (lambda path: imputer.save_imputer(small_imputer(), path),
                     imputer.load_imputer),
    "load_policy-actor": (write_actor, policy_reader("actor")),
    "load_policy-critic": (write_critic, policy_reader("critic")),
    "load_run_csv": (write_run_csv, training.load_run_csv),
    "load_sweep_csv": (write_sweep_csv, evaluate.load_sweep_csv),
    "load_mnist_idx": (write_idx, data.load_mnist_idx),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Each reader's file as its writer made it, and a path to mutate it at."""
    root = tmp_path_factory.mktemp("readers")
    out = {}
    for name, (write, read) in READERS.items():
        path = root / name
        write(path)
        read(path)              # the writer's own file reads back
        out[name] = (path.read_bytes(), root / f"{name}.mutated")
    return out


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.data())
def test_a_mutated_file_is_read_or_refused_with_value_error(originals, name, mutation):
    original, path = originals[name]
    content = mutation.draw(mutated(original))
    path.write_bytes(content)
    read_within_bound(READERS[name][1], path, len(content))
