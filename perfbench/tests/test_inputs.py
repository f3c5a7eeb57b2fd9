"""Workload inputs depend on the seed alone (harness/inputs.py)."""

import json
import unittest

from harness import inputs


class InputsTest(unittest.TestCase):
    def test_same_seed_same_bodies(self):
        self.assertEqual(inputs.serve_bodies(7, 0.2), inputs.serve_bodies(7, 0.2))
        self.assertNotEqual(inputs.serve_bodies(7, 0.2), inputs.serve_bodies(8, 0.2))

    def test_body_mix(self):
        for share in inputs.SERVE_REPEAT_SHARES.values():
            closed, opened = inputs.serve_bodies(3, share)
            self.assertEqual(len(closed), inputs.SERVE_CLOSED_REQUESTS)
            self.assertEqual(len(opened), inputs.SERVE_OPEN_REQUESTS)
            bodies = closed + opened
            self.assertAlmostEqual(inputs.repeat_share(bodies, range(len(bodies))), share,
                                   places=3)
        distinct = set(bodies)
        kinds = {"dataset": 0, "inline": 0, "compare": 0}
        for path, text in distinct:
            body = json.loads(text)
            if path == "/v1/compare":
                kinds["compare"] += 1
                self.assertGreaterEqual(len(body["schedulers"]), inputs.COMPARE_MIN)
            else:
                kinds["inline" if "instance" in body else "dataset"] += 1
            self.assertNotIn("\t", text)
            self.assertNotIn("\n", text)
        self.assertTrue(all(kinds.values()), kinds)

    def test_phases_get_the_same_mix(self):
        def mix(requests):
            compare = [json.loads(text) for path, text in requests if path == "/v1/compare"]
            inline = sum("instance" in json.loads(text) for _, text in requests)
            return (len(compare) / len(requests), inline / len(requests),
                    sum(len(body["schedulers"]) for body in compare) / len(compare))
        for share in inputs.SERVE_REPEAT_SHARES.values():
            closed, opened = inputs.serve_bodies(9, share)
            for share_closed, share_open in zip(mix(closed), mix(opened)):
                self.assertAlmostEqual(share_closed, share_open, delta=0.02 * share_closed)
            # Each phase repeats bodies in the stated share of its requests.
            seen = set()
            for phase in (closed, opened):
                repeats = sum(body in seen for body in phase) + len(phase) - len(set(phase))
                self.assertEqual(repeats, round(len(phase) * share))
                seen.update(phase)

    def test_repeat_share_counts_bodies_already_sent(self):
        bodies = ["a", "b", "a", "c", "b"]
        self.assertEqual(inputs.repeat_share(bodies, range(5)), 0.4)
        # Send order is list order, whatever order the samples come in.
        self.assertEqual(inputs.repeat_share(bodies, [4, 2, 0, 1, 3]), 0.4)
        self.assertEqual(inputs.repeat_share(bodies, [0, 1, 3]), 0.0)

    def test_inline_instances_follow_the_codec_schema(self):
        closed, opened = inputs.serve_bodies(5, 0.2)
        for _, text in closed + opened:
            instance = json.loads(text).get("instance")
            if instance is None:
                continue
            deps = [(d["from"], d["to"]) for d in instance["deps"]]
            self.assertEqual(deps, sorted(deps))
            self.assertTrue(all(a < b for a, b in deps))
            nodes = len(instance["nodes"])
            links = [(link["a"], link["b"]) for link in instance["links"]]
            self.assertEqual(links, [(a, b) for a in range(nodes) for b in range(a + 1, nodes)])

    def test_specs_carry_the_seed(self):
        for make in (inputs.pisa_grid_spec, inputs.bench_grid_spec, inputs.sim_faults_spec):
            self.assertEqual(make(11)["seed"], 11)
            self.assertEqual(make(11), make(11))


if __name__ == "__main__":
    unittest.main()
