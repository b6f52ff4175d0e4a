"""The vectorized forward in blocks of tile rows, on the block threads.

``rasterize_vectorized`` cuts its intersection table into blocks of whole
tile rows of about ``engine.BLOCK_CELLS`` cells and runs them on
``repro.pool.map_blocks``; one running sum over the whole table joins
them. These tests pin that the blocks are a schedule and nothing else:
image, transmittance, the six table columns, ``t_before``, ``counts`` and
the five gradients are ``tobytes()``-equal to the one-block, one-thread
path for every block size and thread count; the table is built once per
block and never in the backward; concurrent callers, a forked pool worker
and injected faults get the same bytes. The thread and fork cases run
under a timeout, so a hang fails instead of wedging the run.
"""

import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro import faults, pool
from repro.faults import Fault, FaultPlan, InjectedFaultError
from repro.pool import PersistentPool, map_blocks
from repro.render import RasterConfig, engine
from repro.render.engine import (
    rasterize_backward_vectorized,
    rasterize_vectorized,
)

from test_engine_equivalence import make_splats
from test_occlusion_prune import saturated_splats

GRAD_FIELDS = ("means2d", "conics", "colors", "opacities", "mean2d_abs")
TABLE_FIELDS = ("pixel", "sid", "alpha", "starts", "counts", "nz")
BG = np.array([0.3, 0.1, 0.5])

#: A block size no fixture reaches: the whole table is one block.
ONE_BLOCK = 1 << 40

#: Seconds a thread or fork case may take before it counts as a hang.
TIMEOUT_S = 60.0


def _empty_splats():
    return (
        np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
        np.zeros(0), np.zeros(0), np.zeros(0),
    )


def _offscreen_splats():
    args = list(make_splats(10, 32, 32, 4))
    args[0] = args[0] + 500.0
    return tuple(args)


def _rows(n, width, y_lo, y_hi, seed, opacity=None):
    """``n`` small splats whose boxes stay inside pixel rows
    ``[y_lo, y_hi)``."""
    args = [a.copy() for a in make_splats(n, width, 16, seed)]
    means2d, radii = args[0], args[5]
    radii[:] = np.minimum(radii, 2.5)
    means2d[:, 1] = np.random.default_rng(seed).uniform(
        y_lo + 4.0, y_hi - 4.0, size=n
    )
    if opacity is not None:
        args[3][:] = opacity
    return tuple(args)


def _stack(*groups):
    return tuple(np.concatenate(column) for column in zip(*groups))


def _gap_row():
    """Splats in tile rows 0 and 2-6 of a 40x112 view; tile row 1 has no
    intersection, so no block holds it."""
    return _stack(*[
        _rows(30, 40, 16 * r, 16 * (r + 1), 10 + r) for r in (0, 2, 3, 4, 5, 6)
    ])


def _faint_row():
    """Tile row 1 of a 40x112 view holds only splats too faint for
    ``alpha_min``: at the default threshold its block keeps no pair."""
    return _stack(*[
        _rows(30, 40, 16 * r, 16 * (r + 1), 20 + r,
              opacity=1e-4 if r == 1 else None)
        for r in range(7)
    ])


# (id, splats, width, height); seven tile rows give three threads two
# blocks each, four or five give two threads two
CASES = [
    ("n150-70x50", make_splats(150, 70, 50, 1), 70, 50),
    ("n400-96x80", make_splats(400, 96, 80, 2), 96, 80),
    ("n300-40x100", make_splats(300, 40, 100, 5), 40, 100),
    ("gap-row", _gap_row(), 40, 112),
    ("faint-row", _faint_row(), 40, 112),
    ("saturated", saturated_splats(64, 112, 3), 64, 112),
    ("empty", _empty_splats(), 16, 12),
    ("offscreen", _offscreen_splats(), 32, 32),
]

SCHEDULES = [(64, 1), (64, 2), (64, 3), (1000, 1), (1000, 2), (1000, 3)]


@contextmanager
def _schedule(block_cells, cpus):
    """``BLOCK_CELLS`` and the process's CPU count patched for the body."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_CELLS", block_cells)
        patch.setattr(pool, "usable_cpus", lambda: cpus)
        yield


def _config(dtype, alpha_min):
    cfg = RasterConfig(dtype=dtype)
    return cfg if alpha_min is None else replace(cfg, alpha_min=alpha_min)


def _forward(args, w, h, cfg):
    return rasterize_vectorized(
        *args, width=w, height=h, background=BG, config=cfg
    )


def _backward(args, res, cfg, seed=3):
    h, w = res.image.shape[:2]
    grad = np.random.default_rng(seed).normal(size=(h, w, 3))
    return rasterize_backward_vectorized(
        *args[:4], res, grad, background=BG, config=cfg
    )


def _as_bytes(arrays):
    return {
        name: (a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes())
        for name, a in arrays.items()
    }


def _forward_bytes(res):
    saved = res.saved
    arrays = {
        "image": res.image,
        "transmittance": res.final_transmittance,
        "t_before": saved.t_before,
    }
    arrays.update({f: getattr(saved.pairs, f) for f in TABLE_FIELDS})
    out = _as_bytes(arrays)
    out["counts"] = tuple(res.counts)
    return out


def _grad_bytes(grads):
    return _as_bytes({f: getattr(grads, f) for f in GRAD_FIELDS})


def _outputs(args, w, h, cfg):
    """Everything the forward and the backward through it produce."""
    res = _forward(args, w, h, cfg)
    return _forward_bytes(res), _grad_bytes(_backward(args, res, cfg))


def _count_calls(monkeypatch, name, record=lambda args: None):
    """One entry per call of ``engine.<name>``, from any thread."""
    calls = []
    real = getattr(engine, name)

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(record(out))
        return out

    monkeypatch.setattr(engine, name, counted)
    return calls


def _within(seconds, fn, *args):
    """``fn(*args)`` on a daemon thread: fails the test if it has not
    returned after ``seconds``, re-raises what it raised."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"still running after {seconds} s: a hang")
    if "error" in out:
        raise out["error"]
    return out.get("value")


# ---------------------------------------------------------------------------
# invariance: the blocks change the schedule, not one bit
# ---------------------------------------------------------------------------

class TestInvariance:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("dtype", [None, "float32"], ids=["f64", "f32"])
    @pytest.mark.parametrize("alpha_min", [None, 0.0], ids=["amin", "amin0"])
    @pytest.mark.parametrize(
        "block_cells, threads", SCHEDULES,
        ids=[f"block{b}-t{t}" for b, t in SCHEDULES],
    )
    def test_equal_to_one_block(
        self, case, dtype, alpha_min, block_cells, threads
    ):
        _, args, w, h = case
        cfg = _config(dtype, alpha_min)
        with _schedule(ONE_BLOCK, 1):
            want = _outputs(args, w, h, cfg)
        with _schedule(block_cells, threads):
            got = _outputs(args, w, h, cfg)
        assert got[0] == want[0]
        assert got[1] == want[1]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_fallback_rebuild_in_blocks(self, case):
        """The backward's rebuild runs the same blocks and gives the
        saved table's gradients."""
        _, args, w, h = case
        cfg = RasterConfig()
        with _schedule(ONE_BLOCK, 1):
            res = _forward(args, w, h, cfg)
            want = _grad_bytes(_backward(args, res, cfg))
        with _schedule(64, 2):
            got = _grad_bytes(_backward(args, replace(res, saved=None), cfg))
        assert got == want

    def test_the_cases_reach_what_they_are_named_for(self, monkeypatch):
        """Several blocks really run; the gap row is in no block; the
        faint row's block keeps no pair; the saturated view is pruned."""
        blocks = _count_calls(
            monkeypatch, "pairs_for_isects",
            lambda table: (table.isects, table.alpha.size),
        )
        found = {}
        with _schedule(64, 3):
            for name, args, w, h in CASES:
                blocks.clear()
                res = _forward(args, w, h, RasterConfig())
                found[name] = (list(blocks), res.counts)
        assert len(found["n300-40x100"][0]) == 7  # one per tile row
        assert len(found["gap-row"][0]) == 6  # tile row 1 has no isect
        # (blocks finish in any order on the threads)
        faint = found["faint-row"][0]
        assert len(faint) == 7
        assert [pairs == 0 < isects for isects, pairs in faint].count(True) == 1
        saturated = found["saturated"]
        assert len(saturated[0]) == 7 and saturated[1].pruned_isects > 0
        assert found["empty"][0] == [(0, 0)]

    def test_blocks_are_whole_tile_rows_of_about_a_block(self, monkeypatch):
        args = make_splats(400, 96, 80, 2)
        cuts = _count_calls(monkeypatch, "_tile_row_blocks", lambda out: out)
        tiles = _count_calls(
            monkeypatch, "visible_intersections", lambda out: out[:3]
        )
        with _schedule(1000, 2):
            _forward(args, 96, 80, RasterConfig())
        (isect_edges, first_cells), = cuts
        (tile_ids, _, tiles_x), = tiles
        assert isect_edges[0] == 0 and isect_edges[-1] == tile_ids.size
        assert len(first_cells) == len(isect_edges) - 1 >= 4
        rows = tile_ids // tiles_x
        for cut in isect_edges[1:-1]:
            assert rows[cut] != rows[cut - 1]  # only between tile rows
        assert first_cells[0] == 0 and np.diff(first_cells).min() > 0

    def test_fewer_than_two_blocks_per_thread_is_one_block(self, monkeypatch):
        """A cut that would leave a thread fewer than two blocks is not
        made, and one CPU never cuts."""
        args = make_splats(150, 70, 50, 1)  # four tile rows
        calls = _count_calls(monkeypatch, "pairs_for_isects")
        for cpus, want in ((1, 1), (2, 4), (3, 1)):
            calls.clear()
            with _schedule(64, cpus):
                _forward(args, 70, 50, RasterConfig())
            assert len(calls) == want, cpus


class TestBuiltOncePerBlock:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_forward_builds_each_block_once_backward_never(
        self, case, monkeypatch
    ):
        _, args, w, h = case
        cfg = RasterConfig()
        cuts = _count_calls(
            monkeypatch, "_tile_row_blocks", lambda out: len(out[0]) - 1
        )
        built = _count_calls(monkeypatch, "pairs_for_isects")
        with _schedule(64, 2):
            res = _forward(args, w, h, cfg)
            assert len(built) == cuts[0] >= 1
            built.clear()
            _backward(args, res, cfg)
            assert built == []
            _backward(args, replace(res, saved=None), cfg)
            assert len(built) == cuts[1] == cuts[0]


# ---------------------------------------------------------------------------
# concurrency, fork, faults
# ---------------------------------------------------------------------------

def _render_in_worker(payload):
    """Pool task: the forward of one view, and whether this process
    started block threads for it (a pool worker must run inline)."""
    args, w, h = payload
    res = rasterize_vectorized(*args, width=w, height=h, background=BG)
    threads = pool._BLOCK_POOL
    started = threads is not None and threads[0][0] == os.getpid()
    return (
        res.image.tobytes(), res.final_transmittance.tobytes(), started
    )


class TestThreadsAndForks:
    def test_two_callers_at_once(self):
        """Two caller threads share three block threads — more than the
        cores of a small box — with the interpreter switching threads as
        often as it can: a block written into the other caller's table,
        or one lost, would change its bytes."""
        views = [case[1:] for case in CASES if case[0] in (
            "n300-40x100", "saturated"
        )]
        cfg = RasterConfig()
        with _schedule(64, 3):
            serial = [_outputs(*view, cfg) for view in views]
            start = threading.Barrier(len(views))
            results = [None] * len(views)

            def caller(i):
                start.wait(TIMEOUT_S)
                results[i] = [_outputs(*views[i], cfg) for _ in range(4)]

            def both():
                callers = [
                    threading.Thread(target=caller, args=(i,), daemon=True)
                    for i in range(len(views))
                ]
                for thread in callers:
                    thread.start()
                for thread in callers:
                    thread.join()

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                _within(TIMEOUT_S, both)
            finally:
                sys.setswitchinterval(switch)
        for want, got in zip(serial, results):
            assert got is not None and all(run == want for run in got)

    @pytest.mark.skipif(
        PersistentPool.default_start_method() != "fork",
        reason="the case is about threads a forked child does not inherit",
    )
    def test_forked_pool_worker_renders_inline(self):
        args, w, h = make_splats(400, 96, 80, 2), 96, 80
        with _schedule(64, 2):
            parent = _forward(args, w, h, None)  # starts the block threads
            assert pool._BLOCK_POOL[0] == (os.getpid(), 2)
            workers = PersistentPool(1, task_timeout=TIMEOUT_S, max_retries=0)
            try:
                (image, trans, started), = _within(
                    TIMEOUT_S, workers.map, _render_in_worker, [(args, w, h)]
                )
            finally:
                workers.close()
        assert not started
        assert image == parent.image.tobytes()
        assert trans == parent.final_transmittance.tobytes()


class TestFaults:
    ARGS, W, H = make_splats(400, 96, 80, 2), 96, 80

    def test_delayed_blocks_give_the_same_bytes(self, tmp_path):
        cfg = RasterConfig()
        with _schedule(64, 2):
            want = _outputs(self.ARGS, self.W, self.H, cfg)
            plan = FaultPlan(str(tmp_path), faults=tuple(
                Fault("block:forward", "delay", index=b, times=2,
                      seconds=0.02)
                for b in (0, 2, 4)
            ))
            with faults.active_plan(plan):
                got = _within(
                    TIMEOUT_S, _outputs, self.ARGS, self.W, self.H, cfg
                )
        assert got == want
        # each delayed block visited its point once per round
        assert len(list(tmp_path.iterdir())) == 6

    def test_an_injected_error_reaches_the_caller(self, tmp_path):
        cfg = RasterConfig()
        with _schedule(64, 2):
            want = _outputs(self.ARGS, self.W, self.H, cfg)
            plan = FaultPlan(
                str(tmp_path), faults=(Fault("block:forward", "raise", index=1),)
            )
            with faults.active_plan(plan):
                with pytest.raises(InjectedFaultError):
                    _within(TIMEOUT_S, _forward, self.ARGS, self.W, self.H, cfg)
            # the threads are still there and still right
            assert _within(
                TIMEOUT_S, _outputs, self.ARGS, self.W, self.H, cfg
            ) == want
            assert map_blocks(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]

    def test_map_blocks_waits_for_every_task_and_keeps_order(self):
        done = []

        def task(i):
            if i == 0:
                time.sleep(0.05)
                done.append(i)
                raise ValueError("first")
            done.append(i)
            return i

        with _schedule(64, 3):
            with pytest.raises(ValueError, match="first"):
                _within(TIMEOUT_S, map_blocks, task, range(6))
            assert sorted(done) == list(range(6))
            assert _within(
                TIMEOUT_S, map_blocks, lambda i: -i, range(6)
            ) == [0, -1, -2, -3, -4, -5]


#: ``Fault.after`` that lands a block's fault in each phase: a block visits
#: ``block:forward`` once as it is built and once as it finishes (its
#: scan and composite), so skipping one visit lands in the second.
PHASES = {"build": 0, "finish": 1}


class TestFaultMatrix:
    """A fault in each phase of the first, a middle and the last of five
    blocks on two threads, in the forward and in the backward's rebuild:
    an error reaches the caller and leaves nothing behind — the next run
    gives the clean run's bytes — and a stall changes no byte. The tokens
    the block's visits claim show where the fault fired: an error is the
    block's last visit."""

    ARGS, W, H = TestFaults.ARGS, TestFaults.W, TestFaults.H

    def _plan(self, tmp_path, action, phase, index):
        return FaultPlan(str(tmp_path), faults=(Fault(
            "block:forward", action, index=index, after=PHASES[phase],
            seconds=0.05,
        ),))

    def _visits(self, tmp_path):
        return len(list(tmp_path.iterdir()))

    @pytest.mark.parametrize("index", [0, 2, 4], ids=lambda b: f"block{b}")
    @pytest.mark.parametrize("phase", list(PHASES))
    def test_raise_then_bit_identical(self, tmp_path, phase, index):
        cfg = RasterConfig()
        with _schedule(64, 2):
            want = _outputs(self.ARGS, self.W, self.H, cfg)
            with faults.active_plan(
                self._plan(tmp_path, "raise", phase, index)
            ):
                with pytest.raises(InjectedFaultError):
                    _within(TIMEOUT_S, _forward, self.ARGS, self.W, self.H, cfg)
            assert _within(
                TIMEOUT_S, _outputs, self.ARGS, self.W, self.H, cfg
            ) == want
        assert self._visits(tmp_path) == PHASES[phase] + 1

    @pytest.mark.parametrize("index", [0, 2, 4], ids=lambda b: f"block{b}")
    @pytest.mark.parametrize("phase", list(PHASES))
    def test_raise_in_rebuild_then_bit_identical(self, tmp_path, phase, index):
        """The backward of a result without its table rebuilds it through
        the same blocks; a fault there leaves the next rebuild exact."""
        cfg = RasterConfig()
        with _schedule(64, 2):
            res = _forward(self.ARGS, self.W, self.H, cfg)
            want = _grad_bytes(_backward(self.ARGS, res, cfg))
            bare = replace(res, saved=None)
            with faults.active_plan(
                self._plan(tmp_path, "raise", phase, index)
            ):
                with pytest.raises(InjectedFaultError):
                    _within(TIMEOUT_S, _backward, self.ARGS, bare, cfg)
            got = _within(TIMEOUT_S, _backward, self.ARGS, bare, cfg)
        assert _grad_bytes(got) == want
        assert self._visits(tmp_path) == PHASES[phase] + 1

    @pytest.mark.parametrize("index", [0, 2, 4], ids=lambda b: f"block{b}")
    @pytest.mark.parametrize("phase", list(PHASES))
    def test_delay_bit_identical(self, tmp_path, phase, index):
        """The stalled block's thread falls behind; the other runs ahead,
        and the blocks still join in table order."""
        cfg = RasterConfig()
        with _schedule(64, 2):
            want = _outputs(self.ARGS, self.W, self.H, cfg)
            with faults.active_plan(
                self._plan(tmp_path, "delay", phase, index)
            ):
                got = _within(
                    TIMEOUT_S, _outputs, self.ARGS, self.W, self.H, cfg
                )
        assert got == want
        # built once and finished once; the backward never rebuilt it
        assert self._visits(tmp_path) == 2
