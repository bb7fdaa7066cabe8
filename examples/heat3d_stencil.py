"""A real mini-app: 3-D Jacobi heat diffusion with halo exchange over the
simulated MPI, checkpointing its state through pMEMCPY — then a mid-run
*power failure*, and a restart from the last durable checkpoint.

Demonstrates: decomposition + point-to-point halo exchange, periodic
pMEMCPY checkpoints, crash-simulation, and restart correctness (the
restarted run converges to exactly the same field as an uninterrupted one).
The reference run's I/O span tree is exported as
``results/heat3d.trace.json`` — load it in https://ui.perfetto.dev (or
``chrome://tracing``) to see a checkpoint's store pipeline, one track
per rank.  Every span is recorded; the whole trace stays well under
:data:`TRACE_SIZE_BUDGET`.

Run:  python examples/heat3d_stencil.py
"""

import os

import numpy as np

from repro import Cluster, Communicator, PMEM
from repro.workloads import block_decompose

N = (24, 24, 24)          # global grid
STEPS = 12                # total timesteps
CHECKPOINT_EVERY = 4
ALPHA = 0.1


def exchange_halos(comm, u, axis_ranks):
    """1-D decomposition along axis 0: swap boundary planes with
    neighbors."""
    rank, size = comm.rank, comm.size
    if rank > 0:
        comm.send(u[1].copy(), dest=rank - 1, tag=0)
        u[0] = comm.recv(source=rank - 1, tag=1)
    if rank < size - 1:
        comm.send(u[-2].copy(), dest=rank + 1, tag=1)
        u[-1] = comm.recv(source=rank + 1, tag=0)


def jacobi_step(u):
    """One explicit diffusion step on the interior."""
    out = u.copy()
    out[1:-1, 1:-1, 1:-1] = u[1:-1, 1:-1, 1:-1] + ALPHA * (
        u[2:, 1:-1, 1:-1] + u[:-2, 1:-1, 1:-1]
        + u[1:-1, 2:, 1:-1] + u[1:-1, :-2, 1:-1]
        + u[1:-1, 1:-1, 2:] + u[1:-1, 1:-1, :-2]
        - 6.0 * u[1:-1, 1:-1, 1:-1]
    )
    return out


def initial_field(offsets, dims):
    i = np.arange(offsets[0], offsets[0] + dims[0]).reshape(-1, 1, 1)
    j = np.arange(dims[1]).reshape(1, -1, 1)
    k = np.arange(dims[2]).reshape(1, 1, -1)
    return np.exp(
        -((i - N[0] / 2) ** 2 + (j - N[1] / 2) ** 2 + (k - N[2] / 2) ** 2)
        / 30.0
    )


def run_app(ctx, *, crash_after: int | None, start_fresh: bool):
    """The solver: optionally restarts from the latest checkpoint."""
    comm = Communicator.world(ctx)
    offsets, dims = block_decompose(N, comm.size, comm.rank)
    # pad axis 0 with halo planes
    u = np.zeros((dims[0] + 2, dims[1], dims[2]))

    pmem = PMEM(layout="hierarchical")
    pmem.mmap("/pmem/heat3d", comm)

    step0 = 0
    if not start_fresh and "ckpt/step" in pmem.list_variables():
        step0 = int(pmem.load("ckpt/step"))
        u[1:-1] = pmem.load("ckpt/u", offsets=offsets, dims=dims)
        if comm.rank == 0:
            print(f"  restarted from checkpoint at step {step0}")
    else:
        u[1:-1] = initial_field(offsets, dims)

    for step in range(step0, STEPS):
        exchange_halos(comm, u, None)
        u = jacobi_step(u)
        if (step + 1) % CHECKPOINT_EVERY == 0:
            if comm.rank == 0:
                pmem.alloc("ckpt/u", N)
            comm.barrier()
            pmem.store("ckpt/u", u[1:-1], offsets=offsets)
            comm.barrier()
            if comm.rank == 0:
                pmem.store("ckpt/step", float(step + 1))
            comm.barrier()
        if crash_after is not None and step + 1 == crash_after:
            pmem.munmap()
            return None, step + 1
    interior = u[1:-1]
    total = comm.allreduce(np.array([interior.sum()]))[0]
    pmem.munmap()
    return total, STEPS


#: the committed trace must stay repo-friendly
TRACE_SIZE_BUDGET = 100 * 1024


def main():
    nprocs = 4

    # Reference: uninterrupted run.
    ref_cluster = Cluster(crash_sim=True)
    ref = ref_cluster.run(
        nprocs, lambda ctx: run_app(ctx, crash_after=None, start_fresh=True)
    )
    ref_total = ref.returns[0][0]
    print(f"uninterrupted run: sum(u) = {ref_total:.6f} after {STEPS} steps")

    # export the reference run's span tree for Perfetto / chrome://tracing
    from repro.telemetry.export import chrome_trace, write_json

    os.makedirs("results", exist_ok=True)
    path = write_json("results/heat3d.trace.json",
                      chrome_trace(ref.traces, process_name="heat3d"))
    size = os.path.getsize(path)
    if size >= TRACE_SIZE_BUDGET:
        raise SystemExit(
            f"{path} is {size} bytes (budget {TRACE_SIZE_BUDGET})"
        )
    print(f"I/O trace written to {path} ({size} bytes) — "
          f"open it at https://ui.perfetto.dev")

    # Crashy run: power fails at step 6 (after the step-4 checkpoint).
    cl = Cluster(crash_sim=True)
    cl.run(nprocs, lambda ctx: run_app(ctx, crash_after=6, start_fresh=True))
    print("power failure at step 6 — un-persisted state lost")
    cl.crash()  # drop volatile device state + node caches

    out = cl.run(
        nprocs, lambda ctx: run_app(ctx, crash_after=None, start_fresh=False)
    )
    total = out.returns[0][0]
    print(f"restarted run:     sum(u) = {total:.6f} after {STEPS} steps")
    assert abs(total - ref_total) < 1e-9, "restart diverged!"
    print("restart matches the uninterrupted run exactly ✓")


if __name__ == "__main__":
    main()
