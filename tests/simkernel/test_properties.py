"""Property-based tests of kernel invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Environment, RandomStreams, Resource, Store


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_clock_is_monotonic_and_events_ordered(delays):
    """Whatever the schedule, observed event times never decrease."""
    env = Environment()
    observed = []
    for d in delays:
        ev = env.timeout(d, value=d)
        ev.callbacks.append(lambda e: observed.append((env.now, e.value)))
    env.run()
    times = [t for t, _ in observed]
    assert times == sorted(times)
    assert sorted(v for _, v in observed) == sorted(delays)
    assert env.now == max(delays)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(st.floats(min_value=0.01, max_value=10), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    """Concurrent holders never exceed capacity; all work completes."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    in_use = [0]
    peak = [0]
    done = [0]

    def worker(env, hold):
        with res.request() as req:
            yield req
            in_use[0] += 1
            peak[0] = max(peak[0], in_use[0])
            yield env.timeout(hold)
            in_use[0] -= 1
        done[0] += 1

    for h in holds:
        env.process(worker(env, h))
    env.run()
    assert peak[0] <= capacity
    assert done[0] == len(holds)
    assert res.count == 0


@given(items=st.lists(st.integers(), min_size=0, max_size=40))
@settings(max_examples=60, deadline=None)
def test_store_preserves_order_and_content(items):
    """A Store is an exact FIFO: everything out, in order."""
    env = Environment()
    store = Store(env)

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        out = []
        for _ in items:
            out.append((yield store.get()))
        return out

    env.process(producer(env))
    proc = env.process(consumer(env))
    result = env.run(proc) if items else env.run(proc)
    assert result == items


@given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_random_streams_deterministic(seed, name):
    """Same seed + stream name => identical draws; independent of others."""
    a = RandomStreams(seed)
    b = RandomStreams(seed)
    # Interleave another stream on `b` only: must not perturb `name`.
    b.stream("other").random()
    draws_a = [a.stream(name).random() for _ in range(5)]
    draws_b = [b.stream(name).random() for _ in range(5)]
    assert draws_a == draws_b


@given(
    mean=st.floats(min_value=1e-9, max_value=1e3),
    sigma=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_jitter_always_positive(mean, sigma):
    rng = RandomStreams(7)
    for _ in range(20):
        assert rng.jitter("s", mean, sigma) > 0


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=2000),
    rel_sigma=st.floats(min_value=0.0, max_value=2.0),
    mean=st.sampled_from([1.0, 0.37, 250.0]),
)
@settings(max_examples=80, deadline=None)
def test_jitter_sum_equals_scalar_loop(seed, n, rel_sigma, mean):
    """One vectorised draw of n jitters is the scalar loop, bit for bit.

    The reference is n ``jitter`` calls accumulated with ``+=`` from 0.0.
    The totals must be equal exactly, and the next draw from the
    substream must match, so the generator ends in the same state.  A
    sigma up to 2.0 makes the 10%-of-mean floor fire.
    """
    vectorised, scalar = RandomStreams(seed), RandomStreams(seed)
    total = 0.0
    for _ in range(n):
        total += scalar.jitter("dev.write", mean, rel_sigma)
    assert vectorised.jitter_sum("dev.write", mean, rel_sigma, n) == total
    assert vectorised.stream("dev.write").random() == scalar.stream("dev.write").random()
