"""The laws the samplers are checked on, read by tests/test_sim.py and scripts/outputs.py.

It imports only repairchain, so that the output-comparison tool runs
without pytest or scipy, which only the tests need.
"""

import repairchain as rc

# the block-stepped samplers against the step-by-step ones they replaced
ORACLE_LAWS = {
    "geometric(0.25)": lambda: rc.geometric(0.25),
    "geometric(0.5)": lambda: rc.geometric(0.5),
    "geometric(0.65)": lambda: rc.geometric(0.65),
    "half_stable": rc.half_stable,
    "power_zeta(2.1)": lambda: rc.power_zeta(2.1),
    "power_zeta(2.95)": lambda: rc.power_zeta(2.95),
    "explicit a_1 = 0": lambda: rc.explicit([0.5, 0.0, 0.5]),
    "tilt(geometric(0.25), 2/3)": lambda: rc.tilt(rc.geometric(0.25), 2.0 / 3.0),
}
EXIT_LAWS = {
    "geometric(0.25)": lambda: rc.geometric(0.25),
    "geometric(0.4)": lambda: rc.geometric(0.4),
    "explicit a_1 = 0": lambda: rc.explicit([0.3, 0.0, 0.2, 0.5]),
}
