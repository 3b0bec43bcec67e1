"""Clock distribution network substrate.

The paper's scheme lives inside a chip's clock distribution (Fig. 6): a
hierarchically buffered tree whose balanced branches can be upset by
parameter fluctuations, delay-model inaccuracies, crosstalk and
environmental noise.  This package provides:

* a tree datastructure with RC wire segments and buffers;
* an H-tree generator (the symmetric scheme of Fig. 6);
* a zero-skew DME router (the Chao/Boese/Kahng family the paper cites as
  the conventional skew-minimisation baseline);
* Elmore-delay timing and skew analysis;
* critical-pair selection (the paper's two placement criteria);
* tree-level fault injection producing the abnormal skews the sensor must
  catch.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".tree": ("ClockTree", "TreeNode", "Wire", "Buffer"),
    ".htree": ("build_h_tree",),
    ".spine": ("build_spine", "rib_stations"),
    ".dme": ("build_zero_skew_tree",),
    ".rc": ("WireModel", "elmore_delays", "subtree_capacitance",
            "sink_delays"),
    ".skew": ("pairwise_skew", "sink_skew_table", "select_critical_pairs",
              "CriticalPair"),
    ".faults": ("TreeFault", "ResistiveOpen", "CrosstalkCoupling",
                "BufferSlowdown", "SupplyNoise", "perturb_tree",
                "skew_change"),
    ".electrical": ("TreeNetlistBuilder", "electrical_sink_arrivals",
                    "cosimulate_pair_with_sensor"),
    ".whole_tree": ("WholeTreeNetlistBuilder", "GridNetlistBuilder",
                    "SensorPlacement", "WholeTreeRun", "attach_sensors",
                    "select_sensor_pairs", "simulate_whole_tree"),
    ".intermittent": ("IntermittentFault", "CampaignResult",
                      "monitoring_campaign"),
    ".budget": ("SkewBudget", "skew_budget", "recommend_sensitivity",
                "tune_threshold"),
})
