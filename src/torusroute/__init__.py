"""Deadlock-free deterministic routing tables for n-dimensional tori."""

from .algorithms import (GeneticParams, build_bfs_routes, build_rt_bfs,
                         build_rt_genetic, build_rt_sssp, build_sssp,
                         enumerate_minimal_routes, rg_reachable_pairs,
                         turn_count, unique_route_stats)
from .cdg import (CDG, assert_deadlock_free, augment_cdg, build_cdg,
                  used_direction_sets)
from .errors import (DeadlockCycleError, DisconnectedError, IntegrityError,
                     ParseError, TopologyError, UnroutablePairError)
from .metrics import (LoadReport, channel_loads, deviation, load_report,
                      pattern_loads, pattern_pairs, perfect_channel_load)
from .oracle import RuleConfig, brute_force_routes, oracle_equivalence
from .routes import (Route, RoutingTable, check_table, decode_rg_path,
                     load_table, make_route, parse_table, table_to_text,
                     validate_route, write_table)
from .routing_graph import (RoutingGraph, apply_augmentation,
                            build_routing_graph)
from .topology import (Topology, load_topology, make_torus, most_remote,
                       parse_topology, topology_to_text)

__version__ = "0.1.0"
