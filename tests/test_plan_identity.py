"""Theorem 2 prepare: plans and circuits pinned field by field.

The digests below were computed with the per-gate implementation of
the Strassen build, the gate assignment and ``build_plan``.  The
array-native prepare must reproduce every field exactly: the same
circuit gate for gate, the same assignment, the same routed orders and
the same schedules — so a run's rounds and bits cannot move.

The hypothesis tests check the circuit's CSR table, its layering, the
fan-outs and the light-gate packing against short per-node reference
implementations kept here.
"""

from __future__ import annotations

import heapq
import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits import builders
from repro.circuits.arithmetic import matmul_circuit_strassen
from repro.circuits.circuit import Circuit
from repro.circuits.gates import AND, OR, XOR, MajorityGate, ModGate, NOT, ThresholdGate
from repro.core.checkpoint import stable_digest
from repro.matmul.distributed import matmul_input_partition
from repro.simulation import assign_gates, build_plan


def circuit_structure(circuit):
    """Every node as (kind, gate name, inputs, const value, input index),
    plus the outputs."""
    return (
        [
            (
                node.kind,
                None if node.gate is None else node.gate.name,
                list(node.inputs),
                node.const_value,
                node.input_index,
            )
            for node in circuit.nodes
        ],
        circuit.outputs,
    )


def _schedule(schedule):
    if schedule is None:
        return None
    return (schedule.n, schedule.num_rounds, schedule.send_plan, schedule.recv_plan)


def plan_fields(plan):
    """Each public field of a :class:`SimulationPlan` as plain data."""
    a = plan.assignment
    return {
        "assignment": (
            a.owner, sorted(a.heavy), a.s_param, a.heavy_threshold,
            a.capacity, a.light_load,
        ),
        "bandwidth": plan.bandwidth,
        "input_order": plan.input_order,
        "input_lengths": plan.input_lengths,
        "input_schedule": _schedule(plan.input_schedule),
        "layer0_push_recv": plan.layer0_push_recv,
        "heavy_gates": [lp.heavy_gates for lp in plan.layer_plans],
        "summary_senders": [lp.summary_senders for lp in plan.layer_plans],
        "summary_local": [lp.summary_local for lp in plan.layer_plans],
        "has_summary_round": [lp.has_summary_round for lp in plan.layer_plans],
        "push_recv": [lp.push_recv for lp in plan.layer_plans],
        "light_order": [lp.light_order for lp in plan.layer_plans],
        "light_lengths": [lp.light_lengths for lp in plan.layer_plans],
        "light_schedule": [_schedule(lp.light_schedule) for lp in plan.layer_plans],
        "light_owned": [lp.light_owned for lp in plan.layer_plans],
    }


def plan_digest(plan):
    return {name: stable_digest(value) for name, value in plan_fields(plan).items()}


def fan_circuit():
    """A small circuit with every plan feature: a heavy input pushed in
    layer 0, a heavy gate with a summary round whose value is pushed to
    light consumers, constants, and light wires."""
    circuit = Circuit()
    xs = circuit.add_inputs(20)
    zero = circuit.add_const(False)
    hub = xs[0]
    mids = [circuit.add_gate(XOR, [hub, x]) for x in xs[1:]]
    mids += [circuit.add_gate(AND, [hub, x, zero]) for x in xs[1:14]]
    big = circuit.add_gate(OR, mids + [zero, hub])
    for x in xs[10:]:
        circuit.mark_output(circuit.add_gate(AND, [big, x]))
    circuit.mark_output(circuit.add_gate(NOT, [big]))
    return circuit


def pinned_plans():
    """name -> (circuit factory, n, input partition)."""
    plans = {}
    for size in (1, 2, 3, 5, 8, 16):
        for cutoff in (1, 2, 4):
            plans[f"strassen-{size}-{cutoff}"] = (
                lambda size=size, cutoff=cutoff: matmul_circuit_strassen(size, cutoff),
                size,
                matmul_input_partition(size),
            )
    plans["threshold_parity-64"] = (
        lambda: builders.threshold_parity_circuit(64), 64, None,
    )
    plans["majority-64-n8"] = (lambda: builders.majority_circuit(64), 8, None)
    plans["random_layered"] = (
        lambda: builders.random_layered_circuit(12, 5, 10, random.Random(11)), 4, None,
    )
    plans["fan-n16"] = (fan_circuit, 16, None)
    return plans


# name -> (circuit structure digest, {plan field: digest}).
PINNED = {'fan-n16': ('a0dc4d819d178505',
             {'assignment': 'b050cbbf5f31df07',
              'bandwidth': '3c5defc4cc6437aa',
              'has_summary_round': 'cbe82314e9e84afc',
              'heavy_gates': '2f4c115d7372261e',
              'input_lengths': '33a5457d5ddf1ff7',
              'input_order': 'c0557658599ea28b',
              'input_schedule': '3d232bc0df5d71db',
              'layer0_push_recv': 'af2a7832bb10e1e8',
              'light_lengths': 'b96c8e834ba77616',
              'light_order': '8dc68141791ac2a5',
              'light_owned': 'c3f22b38bb3924a5',
              'light_schedule': '25b5ad11c1e04e5a',
              'push_recv': 'bf0d8d23631ca3b1',
              'summary_local': '67d68516ab6ee7b7',
              'summary_senders': '9015c8d72a42038c'}),
 'majority-64-n8': ('828fe6afc9031789',
                    {'assignment': 'b733a6e30809e62a',
                     'bandwidth': 'ea3df6923ce255c2',
                     'has_summary_round': 'c05c1cf39f764125',
                     'heavy_gates': '5b3eda2b25d838c5',
                     'input_lengths': '85f69c3ebdccd2ef',
                     'input_order': '85f69c3ebdccd2ef',
                     'input_schedule': '468222ccdaab1637',
                     'layer0_push_recv': '85f69c3ebdccd2ef',
                     'light_lengths': 'fe47bf57c80f6216',
                     'light_order': 'fe47bf57c80f6216',
                     'light_owned': 'fe47bf57c80f6216',
                     'light_schedule': 'd08b0709613200b4',
                     'push_recv': 'fe47bf57c80f6216',
                     'summary_local': '48e75608d304bb21',
                     'summary_senders': '1a87c6c72ba7225d'}),
 'random_layered': ('1eda9f90fcd022a6',
                    {'assignment': '251746f387ec9090',
                     'bandwidth': '49c55b31cad4a49e',
                     'has_summary_round': '120ee2f8dd85a569',
                     'heavy_gates': '4fdaff5db9049f04',
                     'input_lengths': 'a1871d755581dff0',
                     'input_order': '97fd38f33bfd24ca',
                     'input_schedule': '6c5061e4fc4f0053',
                     'layer0_push_recv': '85f69c3ebdccd2ef',
                     'light_lengths': '67122984c2658942',
                     'light_order': '4fd27c0ed12382e1',
                     'light_owned': 'dc6e41f7fda97a1a',
                     'light_schedule': '120eee156d44621b',
                     'push_recv': 'dc6e16a8de38d1d3',
                     'summary_local': 'dc6e16a8de38d1d3',
                     'summary_senders': 'dc6e16a8de38d1d3'}),
 'strassen-1-1': ('414a3d230c0000f7',
                  {'assignment': '985dac801e17b6ef',
                   'bandwidth': '92842665d502e9aa',
                   'has_summary_round': 'd08720e04408d92a',
                   'heavy_gates': '9b0b1aa3b01bb9f5',
                   'input_lengths': '85f69c3ebdccd2ef',
                   'input_order': '85f69c3ebdccd2ef',
                   'input_schedule': '073e77a3872dd13a',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': 'fe47bf57c80f6216',
                   'light_order': 'fe47bf57c80f6216',
                   'light_owned': '1d4e9493e528dd37',
                   'light_schedule': 'd08b0709613200b4',
                   'push_recv': 'fe47bf57c80f6216',
                   'summary_local': 'fe47bf57c80f6216',
                   'summary_senders': 'fe47bf57c80f6216'}),
 'strassen-1-2': ('414a3d230c0000f7',
                  {'assignment': '985dac801e17b6ef',
                   'bandwidth': '92842665d502e9aa',
                   'has_summary_round': 'd08720e04408d92a',
                   'heavy_gates': '9b0b1aa3b01bb9f5',
                   'input_lengths': '85f69c3ebdccd2ef',
                   'input_order': '85f69c3ebdccd2ef',
                   'input_schedule': '073e77a3872dd13a',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': 'fe47bf57c80f6216',
                   'light_order': 'fe47bf57c80f6216',
                   'light_owned': '1d4e9493e528dd37',
                   'light_schedule': 'd08b0709613200b4',
                   'push_recv': 'fe47bf57c80f6216',
                   'summary_local': 'fe47bf57c80f6216',
                   'summary_senders': 'fe47bf57c80f6216'}),
 'strassen-1-4': ('414a3d230c0000f7',
                  {'assignment': '985dac801e17b6ef',
                   'bandwidth': '92842665d502e9aa',
                   'has_summary_round': 'd08720e04408d92a',
                   'heavy_gates': '9b0b1aa3b01bb9f5',
                   'input_lengths': '85f69c3ebdccd2ef',
                   'input_order': '85f69c3ebdccd2ef',
                   'input_schedule': '073e77a3872dd13a',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': 'fe47bf57c80f6216',
                   'light_order': 'fe47bf57c80f6216',
                   'light_owned': '1d4e9493e528dd37',
                   'light_schedule': 'd08b0709613200b4',
                   'push_recv': 'fe47bf57c80f6216',
                   'summary_local': 'fe47bf57c80f6216',
                   'summary_senders': 'fe47bf57c80f6216'}),
 'strassen-16-1': ('17da5ffb79af3a2c',
                   {'assignment': 'd6019cbb3c3d0d4b',
                    'bandwidth': 'aceb5d7db20bb93e',
                    'has_summary_round': '6d00ee9564305972',
                    'heavy_gates': '5f1c1e30873f24a1',
                    'input_lengths': 'a074bb91f9adbfdf',
                    'input_order': 'a12ef11acddb139a',
                    'input_schedule': 'f7720cedb123ad77',
                    'layer0_push_recv': '85f69c3ebdccd2ef',
                    'light_lengths': '8c9b300db8c254fa',
                    'light_order': 'e81930586bb4cb66',
                    'light_owned': 'fbba7dec804b7383',
                    'light_schedule': 'c10dfa3a3951c4da',
                    'push_recv': 'c9eda0139fb7aeb0',
                    'summary_local': 'c9eda0139fb7aeb0',
                    'summary_senders': 'c9eda0139fb7aeb0'}),
 'strassen-16-2': ('1258f1a67207d056',
                   {'assignment': '591185ac52cb1544',
                    'bandwidth': 'a921eb9f763b61e9',
                    'has_summary_round': '7b0b4a419c07cc1e',
                    'heavy_gates': 'cc4674d503e5c3e3',
                    'input_lengths': '1d7375537068ffbb',
                    'input_order': '3a288be19f9e56c0',
                    'input_schedule': '3c69c5668dd47e8a',
                    'layer0_push_recv': '85f69c3ebdccd2ef',
                    'light_lengths': '6d4850b6341805dd',
                    'light_order': 'd45be90a599f9be4',
                    'light_owned': '20d46c6ad235c937',
                    'light_schedule': '8466ed7b3e94b20b',
                    'push_recv': '9b4f8b718b69ead6',
                    'summary_local': '9b4f8b718b69ead6',
                    'summary_senders': '9b4f8b718b69ead6'}),
 'strassen-16-4': ('68359d090ad7c549',
                   {'assignment': '8fe846a829767799',
                    'bandwidth': '6b481e894e0aebad',
                    'has_summary_round': '0abc3c98a1a5bef4',
                    'heavy_gates': '39890945acb1ea8e',
                    'input_lengths': 'bf2e6be65c5b6d75',
                    'input_order': '16dcdb7ee4634fe9',
                    'input_schedule': '21eccfc65117d7f2',
                    'layer0_push_recv': '85f69c3ebdccd2ef',
                    'light_lengths': '353714b9b94838a7',
                    'light_order': '0b2f19a5d4324bfa',
                    'light_owned': '327a5bbaa6a2934e',
                    'light_schedule': '5760277876b634c1',
                    'push_recv': 'c67c8dcf6a47726b',
                    'summary_local': 'c67c8dcf6a47726b',
                    'summary_senders': 'c67c8dcf6a47726b'}),
 'strassen-2-1': ('60b0711b34db0eb9',
                  {'assignment': '92ed68a893f5c1df',
                   'bandwidth': '14f12dc7571fdd88',
                   'has_summary_round': '97bfe5a07d8bf195',
                   'heavy_gates': 'fbcd78a65e761619',
                   'input_lengths': '8d831f04207bc84b',
                   'input_order': 'cfef4e41b831585f',
                   'input_schedule': '28f435c06e151158',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': '3d43137cd3ba8fb6',
                   'light_order': '47d7b120c9e3c111',
                   'light_owned': 'd9788960cddb24f1',
                   'light_schedule': 'cf4abfa8c93e5f4e',
                   'push_recv': '46de5dd68e8dcbd1',
                   'summary_local': '46de5dd68e8dcbd1',
                   'summary_senders': '46de5dd68e8dcbd1'}),
 'strassen-2-2': ('3f9df0718ccacda5',
                  {'assignment': '4bc6663a847c5e49',
                   'bandwidth': '0d739cba55a184d5',
                   'has_summary_round': '641c1b62e55deee2',
                   'heavy_gates': 'd0da07b505b2cc5f',
                   'input_lengths': 'ee9d9dbcbcc71cb5',
                   'input_order': '23a8d70fb5968495',
                   'input_schedule': '28f435c06e151158',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': 'd624ed6c1711c817',
                   'light_order': '4b222b71d3fdb443',
                   'light_owned': 'e4825a6cf948beb5',
                   'light_schedule': '05767d27d99a918b',
                   'push_recv': '1be0851e7ef8ef92',
                   'summary_local': '1be0851e7ef8ef92',
                   'summary_senders': '1be0851e7ef8ef92'}),
 'strassen-2-4': ('3f9df0718ccacda5',
                  {'assignment': '4bc6663a847c5e49',
                   'bandwidth': '0d739cba55a184d5',
                   'has_summary_round': '641c1b62e55deee2',
                   'heavy_gates': 'd0da07b505b2cc5f',
                   'input_lengths': 'ee9d9dbcbcc71cb5',
                   'input_order': '23a8d70fb5968495',
                   'input_schedule': '28f435c06e151158',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': 'd624ed6c1711c817',
                   'light_order': '4b222b71d3fdb443',
                   'light_owned': 'e4825a6cf948beb5',
                   'light_schedule': '05767d27d99a918b',
                   'push_recv': '1be0851e7ef8ef92',
                   'summary_local': '1be0851e7ef8ef92',
                   'summary_senders': '1be0851e7ef8ef92'}),
 'strassen-3-1': ('65ac77c673ff9620',
                  {'assignment': 'edd1e76a74f98f40',
                   'bandwidth': 'bffd7ff17609a790',
                   'has_summary_round': '120ee2f8dd85a569',
                   'heavy_gates': '4fdaff5db9049f04',
                   'input_lengths': '22917188038ec106',
                   'input_order': '7cdd39f63b04f7b0',
                   'input_schedule': 'cb0f5fb75340a2f3',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': '7ff764d5a61c2873',
                   'light_order': '560ab38fc08fea5c',
                   'light_owned': '1bc40267ad9d0b33',
                   'light_schedule': 'bd3e9ab6edb745d3',
                   'push_recv': 'dc6e16a8de38d1d3',
                   'summary_local': 'dc6e16a8de38d1d3',
                   'summary_senders': 'dc6e16a8de38d1d3'}),
 'strassen-3-2': ('e70ef240cab89bf1',
                  {'assignment': '821ab29805e82b6c',
                   'bandwidth': '34673221c1ff9e01',
                   'has_summary_round': '528c8f05e8850cd0',
                   'heavy_gates': '3c5673ee796a65d4',
                   'input_lengths': 'af74a44287d48228',
                   'input_order': 'ca3a8a15a2b88f9b',
                   'input_schedule': '36135c8ce1e0f702',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': 'a61703c7a753166f',
                   'light_order': 'f0bfe9592044309a',
                   'light_owned': '326fce1e490372d6',
                   'light_schedule': 'fc005cdea39b5ec9',
                   'push_recv': 'fbaad459fff8651c',
                   'summary_local': 'fbaad459fff8651c',
                   'summary_senders': 'fbaad459fff8651c'}),
 'strassen-3-4': ('a1603611aec8c2d5',
                  {'assignment': '7de0e6378b21be01',
                   'bandwidth': '3db491f41cb911dc',
                   'has_summary_round': '641c1b62e55deee2',
                   'heavy_gates': 'd0da07b505b2cc5f',
                   'input_lengths': '287886619fc4f490',
                   'input_order': '491421fa6953840c',
                   'input_schedule': '36135c8ce1e0f702',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': 'e64d7f0763078e90',
                   'light_order': 'd46bcb165f6cd9f2',
                   'light_owned': '59395657950493e6',
                   'light_schedule': '458ec792fcdf3728',
                   'push_recv': '1be0851e7ef8ef92',
                   'summary_local': '1be0851e7ef8ef92',
                   'summary_senders': '1be0851e7ef8ef92'}),
 'strassen-5-1': ('46802816533f5a89',
                  {'assignment': '85de644f103ff691',
                   'bandwidth': '4eddcf317f31a8f8',
                   'has_summary_round': '9c1e287cb2e6f4f6',
                   'heavy_gates': 'f73bb03ee0b11cdd',
                   'input_lengths': 'ef70ad7dcc1573fc',
                   'input_order': '39ac7d70bb2b5110',
                   'input_schedule': 'aa2f97b6a9ca8df0',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': 'b6562ab8b96a746f',
                   'light_order': '3de534ea7a35fb95',
                   'light_owned': '16f1191e52c1d197',
                   'light_schedule': 'f64d5c62dd995c79',
                   'push_recv': '23b3c775d812cb25',
                   'summary_local': '23b3c775d812cb25',
                   'summary_senders': '23b3c775d812cb25'}),
 'strassen-5-2': ('0b1e4a62d6fe3a36',
                  {'assignment': '72fa8d9d87f73151',
                   'bandwidth': '0a9b1bbaa4a5e5c0',
                   'has_summary_round': '0abc3c98a1a5bef4',
                   'heavy_gates': '39890945acb1ea8e',
                   'input_lengths': '4f0c5903df6fcbf2',
                   'input_order': '09700e0679557cc7',
                   'input_schedule': 'fc06f7cd934c4d0b',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': '81e815999c41302b',
                   'light_order': 'e9fae5966168d873',
                   'light_owned': '80da25afb9acaecc',
                   'light_schedule': '82dc13cf91dae939',
                   'push_recv': 'c67c8dcf6a47726b',
                   'summary_local': 'c67c8dcf6a47726b',
                   'summary_senders': 'c67c8dcf6a47726b'}),
 'strassen-5-4': ('cd15ea7d27fbbb2f',
                  {'assignment': '265015ade2ce7a32',
                   'bandwidth': '04375e5e7e267ba2',
                   'has_summary_round': '528c8f05e8850cd0',
                   'heavy_gates': '3c5673ee796a65d4',
                   'input_lengths': '768df3b720d4173c',
                   'input_order': 'deda7a4762dba823',
                   'input_schedule': '747eeb08c62b8288',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': '1e52487b9bf98408',
                   'light_order': '127fd375e8c9a6a5',
                   'light_owned': '5378e6bae3b0d437',
                   'light_schedule': 'bdb452c0b72aa0f4',
                   'push_recv': 'fbaad459fff8651c',
                   'summary_local': 'fbaad459fff8651c',
                   'summary_senders': 'fbaad459fff8651c'}),
 'strassen-8-1': ('35839ab4681b5a2c',
                  {'assignment': '887ea4d11b1b60e5',
                   'bandwidth': '516a1f4a33819c5e',
                   'has_summary_round': '9c1e287cb2e6f4f6',
                   'heavy_gates': 'f73bb03ee0b11cdd',
                   'input_lengths': '9909f3add4ad22ef',
                   'input_order': '983c1209c0bc0474',
                   'input_schedule': '9bac2c91ddee5bc7',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': '15befd86af166100',
                   'light_order': '7161ba30eae70189',
                   'light_owned': 'f387a2f00e7847ed',
                   'light_schedule': '7323c6c5e8275ace',
                   'push_recv': '23b3c775d812cb25',
                   'summary_local': '23b3c775d812cb25',
                   'summary_senders': '23b3c775d812cb25'}),
 'strassen-8-2': ('8b0b0db2b5d35973',
                  {'assignment': 'edc68fe7143b5cb5',
                   'bandwidth': 'cddd0c40e27f54cf',
                   'has_summary_round': '0abc3c98a1a5bef4',
                   'heavy_gates': '39890945acb1ea8e',
                   'input_lengths': 'e91228610c1741e7',
                   'input_order': '84ed8e3f259b6bb2',
                   'input_schedule': '6c148e6405ce4c43',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': 'afd822dd50d72a93',
                   'light_order': '8b7ea33d09a81f2b',
                   'light_owned': 'cf65593fa1fb3017',
                   'light_schedule': '47577836879d81da',
                   'push_recv': 'c67c8dcf6a47726b',
                   'summary_local': 'c67c8dcf6a47726b',
                   'summary_senders': 'c67c8dcf6a47726b'}),
 'strassen-8-4': ('cabaae7d16c1f40d',
                  {'assignment': 'a123044f24a81995',
                   'bandwidth': '40fc0ac9930ed4cf',
                   'has_summary_round': '528c8f05e8850cd0',
                   'heavy_gates': '3c5673ee796a65d4',
                   'input_lengths': '41e80b747bde38f4',
                   'input_order': '53a9346be1f42886',
                   'input_schedule': 'e4b93d25ef26d223',
                   'layer0_push_recv': '85f69c3ebdccd2ef',
                   'light_lengths': 'fbc07137bd2487e3',
                   'light_order': 'b3dff0385d01cd5b',
                   'light_owned': '805fca945162b5a9',
                   'light_schedule': 'b4a75c476eb2c9e0',
                   'push_recv': 'fbaad459fff8651c',
                   'summary_local': 'fbaad459fff8651c',
                   'summary_senders': 'fbaad459fff8651c'}),
 'threshold_parity-64': ('265d39e2b762d862',
                         {'assignment': '9dac79f16bdba049',
                          'bandwidth': '92842665d502e9aa',
                          'has_summary_round': '528c8f05e8850cd0',
                          'heavy_gates': '3c5673ee796a65d4',
                          'input_lengths': '85f69c3ebdccd2ef',
                          'input_order': '85f69c3ebdccd2ef',
                          'input_schedule': 'ea1acf5cd0f20c10',
                          'layer0_push_recv': '85f69c3ebdccd2ef',
                          'light_lengths': '860791ea96672069',
                          'light_order': '17fbfccc52de1b31',
                          'light_owned': 'c00cf7f8e2df8373',
                          'light_schedule': '0efd92147f043c16',
                          'push_recv': 'fbaad459fff8651c',
                          'summary_local': 'fbaad459fff8651c',
                          'summary_senders': 'fbaad459fff8651c'})}


@pytest.mark.parametrize("name", sorted(pinned_plans()))
def test_plan_matches_pinned_digests(name):
    factory, n, partition = pinned_plans()[name]
    circuit = factory()
    plan = build_plan(circuit, n, partition)
    structure, fields = PINNED[name]
    assert plan_digest(plan) == fields
    assert stable_digest(circuit_structure(circuit)) == structure


def test_plan_digest_ignores_materialized_nodes():
    # Pickling (and so stable_digest) sees the circuit's columns and
    # outputs only, never the lazily built GateNode list or the table.
    circuit = matmul_circuit_strassen(5, 2)
    plan = build_plan(circuit, 5, matmul_input_partition(5))
    before = stable_digest(plan)
    circuit.nodes
    circuit.table()
    assert stable_digest(plan) == before
    clone = pickle.loads(pickle.dumps(circuit))
    assert circuit_structure(clone) == circuit_structure(circuit)
    assert stable_digest(build_plan(clone, 5, matmul_input_partition(5))) == before


def test_kernel_path_builds_no_gate_nodes(monkeypatch):
    import repro.circuits.circuit as circuit_mod
    from repro.core.network import Network
    from repro.graphs import random_graph
    from repro.matmul.distributed import triangle_mm_kernel_program

    built = []

    class CountingNode(circuit_mod.GateNode):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(circuit_mod, "GateNode", CountingNode)
    size = 8
    plan = build_plan(
        matmul_circuit_strassen(size), size, matmul_input_partition(size)
    )
    graph = random_graph(size, 0.5, random.Random(3))
    rows = [[int(graph.has_edge(v, u)) for u in range(size)] for v in range(size)]
    Network(n=size, bandwidth=plan.bandwidth).run(
        triangle_mm_kernel_program(graph, plan, 2), inputs=rows
    )
    assert built == []
    assert len(plan.circuit.nodes) == len(plan.circuit)
    assert len(built) == len(plan.circuit)


# -- per-node reference implementations ----------------------------------------


def reference_layer_of(circuit):
    layer = {}
    for node in circuit.nodes:
        layer[node.gate_id] = (
            1 + max(layer[src] for src in node.inputs) if node.inputs else 0
        )
    return layer


def reference_fan_out(circuit):
    fan_out = [0] * len(circuit)
    for node in circuit.nodes:
        for src in node.inputs:
            fan_out[src] += 1
    return fan_out


def reference_assignment(circuit, n):
    """Theorem 2's assignment with the min-load-first heap, gate by gate."""
    wires = sum(len(node.inputs) for node in circuit.nodes)
    s_param = max(1, -(-wires // (n * n)))
    fan_out = reference_fan_out(circuit)
    weights = [
        0 if node.kind == "const" else len(node.inputs) + fan_out[node.gate_id]
        for node in circuit.nodes
    ]
    heavy = [gid for gid, w in enumerate(weights) if w >= 2 * n * s_param]
    owner = [0] * len(circuit)
    for player, gid in enumerate(heavy):
        owner[gid] = player
    load = [0] * n
    heap = [(0, p) for p in range(n)]
    light = sorted(
        (gid for gid in range(len(circuit)) if gid not in heavy),
        key=lambda gid: -weights[gid],
    )
    for gid in light:
        if weights[gid] == 0:
            continue
        current, player = heapq.heappop(heap)
        owner[gid] = player
        load[player] = current + weights[gid]
        heapq.heappush(heap, (load[player], player))
    return owner, set(heavy), load


_GATE_POOL = [AND, OR, XOR, NOT, ModGate(3), ThresholdGate(2), MajorityGate(3),
              ThresholdGate(3, weights=(2, 1, 1))]


@st.composite
def random_circuits(draw):
    """Circuits mixing inputs, constants, single adds and bulk adds;
    input 0 is a hub of large fan-out, so some nodes come out heavy."""
    circuit = Circuit()
    circuit.add_inputs(draw(st.integers(1, 6)))
    for _ in range(draw(st.integers(0, 20))):
        step = draw(st.sampled_from(["input", "const", "gate", "gate", "bulk"]))
        if step == "input":
            circuit.add_input()
        elif step == "const":
            circuit.add_const(draw(st.booleans()))
        else:
            gate = draw(st.sampled_from(_GATE_POOL))
            arity = gate.arity() or draw(st.integers(1, 5))
            ids = st.one_of(st.just(0), st.integers(0, len(circuit) - 1))
            if step == "gate":
                circuit.add_gate(gate, draw(st.lists(ids, min_size=arity, max_size=arity)))
            else:
                rows = draw(st.integers(1, 4))
                circuit.add_gates(gate, np.asarray(
                    draw(st.lists(ids, min_size=rows * arity, max_size=rows * arity))
                ).reshape(rows, arity))
    circuit.mark_output(len(circuit) - 1)
    return circuit


@given(random_circuits(), st.integers(1, 10))
def test_table_and_assignment_match_per_node_reference(circuit, n):
    table = circuit.table()
    nodes = circuit.nodes
    assert table.fan_in.tolist() == [len(node.inputs) for node in nodes]
    assert [table.inputs(g).tolist() for g in range(len(circuit))] == [
        list(node.inputs) for node in nodes
    ]
    assert [table.gate(g) for g in range(len(circuit))] == [node.gate for node in nodes]
    layer_of = reference_layer_of(circuit)
    assert table.layer.tolist() == [layer_of[g] for g in range(len(circuit))]
    layers = circuit.layers()
    assert [gid for level in layers for gid in level] == sorted(
        range(len(circuit)), key=lambda g: (layer_of[g], g)
    )
    assert all(layer_of[g] == level for level, gids in enumerate(layers) for g in gids)
    fan_out = reference_fan_out(circuit)
    assert table.fan_out.tolist() == fan_out
    assert [circuit.fan_out(g) for g in range(len(circuit))] == fan_out
    assignment = assign_gates(circuit, n)
    owner, heavy, load = reference_assignment(circuit, n)
    assert assignment.owner == owner
    assert assignment.heavy == heavy
    assert assignment.light_load == load


# -- misuse fails at plan time, naming the cause --------------------------------


@pytest.mark.parametrize("size, cutoff, name", [(0, 2, "size"), (-1, 2, "size"),
                                                (4, 0, "cutoff"), (4, -3, "cutoff")])
def test_strassen_rejects_nonpositive_arguments(size, cutoff, name):
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        matmul_circuit_strassen(size, cutoff)


@pytest.mark.parametrize("player", [9, -1, 2.0, "0"])
def test_build_plan_checks_input_partition(player):
    circuit = builders.parity_tree(6)
    partition = [0, 1, 2, 3, player, 0]
    with pytest.raises(ValueError, match=rf"input_partition\[4\] = {player!r} "):
        build_plan(circuit, 4, partition)


@pytest.mark.parametrize("bandwidth", [0, -2])
def test_build_plan_rejects_bandwidth_below_one(bandwidth):
    with pytest.raises(ValueError, match="bandwidth must be at least 1"):
        build_plan(builders.parity_tree(8), 4, bandwidth=bandwidth)


@pytest.mark.parametrize("kernel", [False, True], ids=["generator", "kernel"])
def test_bandwidth_narrower_than_heavy_summary_is_rejected(kernel):
    from repro.simulation import simulate_circuit

    circuit = builders.majority_circuit(64)  # gate 64: heavy, 7-bit summaries
    with pytest.raises(ValueError, match="heavy gate 64 sends 7-bit summaries"):
        simulate_circuit(circuit, 8, [True] * 64, bandwidth=1, kernel=kernel)
    outputs, _, plan = simulate_circuit(circuit, 8, [True] * 64, bandwidth=7, kernel=kernel)
    assert plan.bandwidth == 7 and outputs == {64: True}


def test_bulk_add_gates_checks_like_add_gate():
    circuit = Circuit()
    x, y = circuit.add_inputs(2)
    assert circuit.add_gates(AND, [[x, y], [y, x]]).tolist() == [2, 3]
    assert circuit.add_gates(XOR, [[2, 3, x]]).tolist() == [4]
    with pytest.raises(ValueError, match="gate 6 references nonexistent input 6"):
        circuit.add_gates(AND, [[x, y], [y, 6]])
    with pytest.raises(ValueError, match="arity 1, got 2 inputs"):
        circuit.add_gates(NOT, [[x, y]])
    with pytest.raises(ValueError, match="at least one input"):
        circuit.add_gates(OR, np.zeros((2, 0), dtype=int))
    assert len(circuit) == 5
