"""What the benchmark records beside ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root lists the workloads and the
metrics the runner reports, with their units and directions.  This
module holds what that file has no keys for: the seeds, the layer ->
end-to-end metric -> workload predictions and the notes printed beside
every traced run.
"""

#: Seed a run uses when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept out of tuning, so a later claim can be checked on inputs it
#: was not tuned on.
HELD_OUT_SEED = 2

#: Which end-to-end metric each layer metric should move, on which
#: workload it does the most work, and where it should not move at all
#: (a change to that layer predicts no change there).  "Most work in" is
#: the workload where the layer's self time is the largest share of a
#: traced round's, read from ``--trace 1`` runs of every workload.  For
#: filters.match that is telemetry-sim (about 6%, against 4% on
#: churn-sim and 2-3% on stocks-sim and stocks-tcp): the routing cache
#: answers 99% of stocks-sim's lookups, and churn-sim's invalidations
#: raise its probes per event 25-fold, to a 4% share.
PREDICTIONS = (
    ("events.marshal", "publish_rate", "telemetry-sim", "- (every publish)"),
    ("events.unmarshal", "delivery_rate", "stocks-sim", "telemetry-sim"),
    ("filters.match", "publish_rate", "telemetry-sim", "- (every workload)"),
    ("filters.write", "churn_ops_rate, publish_rate", "churn-sim",
     "stocks-sim, telemetry-sim"),
    ("overlay.broker", "publish_rate", "telemetry-sim", "-"),
    ("overlay.subscriber", "delivery_rate", "stocks-sim", "telemetry-sim"),
    ("overlay.control_msgs", "churn_ops_rate", "churn-sim", "stocks-sim"),
    ("sim.send", "publish_rate, delivery_rate", "stocks-sim",
     "stocks-tcp (not run)"),
    ("sim.kernel", "publish_rate", "telemetry-sim", "stocks-tcp (not run)"),
    ("runtime", "latency_p50_ms, latency_p99_ms, publish_rate", "stocks-tcp",
     "all sim workloads (not run)"),
    ("log.append", "publish_rate", "telemetry-sim", "the rest (no log)"),
    ("flow", "publish_rate, failed_frac", "telemetry-sim",
     "the rest (flow off)"),
    ("streams", "publish_rate", "telemetry-sim", "the rest (no flows)"),
    ("core", "setup_s, churn_ops_rate", "churn-sim", "-"),
)

#: Printed beside every traced run.
TRACE_NOTES = (
    "overlay.broker.self_s covers BrokerNode.receive only: the deferred "
    "batch drain has no public entry, so its self time is charged to the "
    "runtime span that runs it (sim.kernel.self_s on the sim workloads, "
    "trace.unattributed_s on stocks-tcp).",
    "The multiprocess runtime is not measured: it runs one OS process per "
    "broker, and until the machine has more cores than brokers its numbers "
    "would measure the scheduler. Its frame codec is the one stocks-tcp "
    "measures.",
)
