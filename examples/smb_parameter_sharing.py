#!/usr/bin/env python
"""The Soft Memory Box substrate, used directly over TCP.

Walks through the paper's Fig. 2 / Fig. 5 buffer choreography without any
deep-learning machinery:

1. start an SMB server (real TCP on localhost);
2. the master worker creates the global weight buffer ``W_g`` and the
   progress control block, and "broadcasts" the SHM keys;
3. each worker attaches ``W_g`` and the control block, claims its slot,
   allocates a private increment buffer ``dW_x``, and runs a few SEASGD
   exchanges (eqs. (5)-(7)) against a toy quadratic objective;
4. workers publish progress through the control block and align their
   termination on the FIRST_FINISHER criterion.

Run:
    python examples/smb_parameter_sharing.py
"""

import threading

import numpy as np

from repro.core.seasgd import apply_increment_local, weight_increment
from repro.smb import ControlBlock, SMBClient, TcpSMBServer

DIMENSIONS = 1000
WORKERS = 4
ITERATIONS = 30
MOVING_RATE = 0.2
LEARNING_RATE = 0.1


def worker_main(address, shm_keys, rank, target, results):
    """One worker: local SGD on ||w - target||^2 plus SEASGD exchanges."""
    client = SMBClient.connect(address)
    global_w = client.attach_array("W_g", shm_keys["W_g"], DIMENSIONS)
    control = ControlBlock.attach(
        client, "control", shm_keys["control"], WORKERS
    )
    # Each worker takes its own slot; every publish carries the claim's
    # generation, so only the slot's current holder counts.
    claim = control.claim(rank)
    delta = client.create_array(f"dW_{rank}", DIMENSIONS)

    rng = np.random.default_rng(rank)
    local = rng.standard_normal(DIMENSIONS).astype(np.float32)

    iteration = 0
    while True:
        # T1/T2: read W_g, elastic-update the local replica (eqs. 5-6).
        global_now = global_w.read()
        increment = weight_increment(local, global_now, MOVING_RATE)
        local = apply_increment_local(local, increment)

        # T.A1-T.A3: push the increment, server accumulates into W_g.
        delta.write(increment)
        delta.accumulate_into(global_w)

        # T4/T5: "training" = one gradient step toward this worker's
        # noisy view of the target.
        noisy_target = target + 0.05 * rng.standard_normal(DIMENSIONS)
        gradient = 2.0 * (local - noisy_target.astype(np.float32))
        local = local - LEARNING_RATE * gradient

        iteration += 1
        control.publish_progress(rank, iteration, claim.generation)
        if iteration >= ITERATIONS:
            control.signal_stop(2)  # first finisher stops everyone
        if control.view().stop != ControlBlock.STOP_CLEAR:
            break

    results[rank] = (iteration, float(np.abs(local - target).mean()))
    client.close()


def main() -> None:
    target = np.linspace(-1.0, 1.0, DIMENSIONS).astype(np.float32)

    with TcpSMBServer(capacity=1 << 26) as server:
        print(f"SMB server listening on {server.address}")

        # Master-side bring-up: create W_g + control block, collect keys.
        master = SMBClient.connect(server.address)
        global_w = master.create_array("W_g", DIMENSIONS)
        control = ControlBlock.create(master, "control", WORKERS)
        shm_keys = {"W_g": global_w.shm_key, "control": control.shm_key}
        print(f"broadcasting SHM keys: { {k: hex(v) for k, v in shm_keys.items()} }")

        results = {}
        threads = [
            threading.Thread(
                target=worker_main,
                args=(server.address, shm_keys, rank, target, results),
            )
            for rank in range(WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        final_global = global_w.read()
        print("\nper-worker outcomes (iterations, mean |local - target|):")
        for rank in sorted(results):
            iterations, error = results[rank]
            print(f"  worker {rank}: {iterations:3d} iterations, "
                  f"error {error:.4f}")
        print(f"\nglobal-weight error vs target: "
              f"{np.abs(final_global - target).mean():.4f}")
        print(f"server stats: {master.stats()}")
        master.close()


if __name__ == "__main__":
    main()
