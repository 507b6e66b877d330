"""Evaluation service walk-through: boot a server, submit jobs, poll.

Starts an in-process evaluation service on an ephemeral port (the same
machinery `repro serve` runs), then drives it through the bundled
stdlib HTTP client: a generator ranking, a burst of spectrum requests
submitted before any is read back, a repeated submission that must
give the same result, and a look at /metrics — finishing with a
graceful drain.

Against an already-running server, point ServiceClient at it instead:

    repro serve --port 8337            # terminal 1
    python examples/service_client.py http://127.0.0.1:8337

Run:  python examples/service_client.py
"""

import sys

from repro.service import ServiceConfig, ServiceThread
from repro.service.client import ServiceClient


def drive(client: ServiceClient) -> None:
    client.wait_ready(timeout=120)

    # --- one ranking job, submit + long-poll in one call -------------
    result = client.run("rank", {"design": "BP", "vectors": 2048})
    print(f"BP ranking -> proposed scheme {result['proposed_scheme']}")
    for entry in result["rankings"]:
        print(f"  {entry['generator']:12s} {entry['rating']}  "
              f"{entry['ratio']:7.3f}")

    # --- a burst of spectrum jobs, queued before any is read ---------
    jobs = [client.submit("spectrum", {"generator": g, "width": 10,
                                       "points": 8})
            for g in ("lfsr1", "lfsr2", "lfsrd", "lfsrm", "ramp")]
    print("\npeak spectral line per generator:")
    for job in jobs:
        doc = client.wait(job["id"], timeout=120)
        spec = doc["result"]
        peak = max(zip(spec["power_db"], spec["freqs"]))
        print(f"  {spec['generator']:12s} {peak[0]:8.2f} dB "
              f"at f={peak[1]:.3f}")

    # --- a repeated submission: its own job, the same answer ---------
    first = client.submit("rank", {"design": "LP"})
    repeat = client.submit("rank", {"design": "LP"})
    a = client.wait(first["id"], timeout=120)
    b = client.wait(repeat["id"], timeout=120)
    print(f"\nrepeated submission: {first['id']} and {repeat['id']}, "
          f"same result {a['result'] == b['result']}")

    # --- what the server saw -----------------------------------------
    metrics = client.metrics()["service"]
    print(f"server totals: {metrics['jobs_done']} done, "
          f"queue {metrics['queue_depth']}/{metrics['queue_capacity']}")


def main() -> None:
    if len(sys.argv) > 1:  # drive an external server
        drive(ServiceClient(sys.argv[1], client_id="example-client"))
        return
    config = ServiceConfig(port=0, no_cache=True, workers=2)
    with ServiceThread(config) as svc:
        print(f"service up on {svc.base_url}")
        drive(svc.client("example-client"))
    summary = svc.summary
    print(f"drained: {summary['done']} done, {summary['failed']} failed")


if __name__ == "__main__":
    main()
