//! The PCIe fabric of Fig. 9: topology, max-min fair sharing, transfers.

use std::collections::VecDeque;

/// A device or hub in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// A CPU socket (0 or 1), including its memory controller.
    Cpu(u8),
    /// A PCIe switch.
    Switch(u8),
    /// A network interface card.
    Nic(u8),
    /// A compute GPU.
    Gpu(u8),
    /// The GPU used for training the scheduler (does not contend).
    TrainingGpu,
    /// The BayesPerf FPGA.
    Fpga,
}

/// A point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Link {
    a: Node,
    b: Node,
    /// Peak bandwidth in GB/s.
    bw_gbps: f64,
}

/// An active transfer: a flow between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: Node,
    /// Destination node.
    pub dst: Node,
}

/// The two-socket PCIe fabric of the test system (Fig. 9).
#[derive(Debug, Clone)]
pub struct Fabric {
    links: Vec<Link>,
    nodes: Vec<Node>,
    /// Per-transaction protocol overhead, bytes (TLP headers, DLLPs).
    pub overhead_bytes: f64,
    /// Transfer setup latency, seconds (driver + doorbell + DMA start).
    pub alpha_seconds: f64,
}

impl Fabric {
    /// The paper's test topology: each socket hosts two switches; socket 0
    /// carries the training GPU + FPGA on one switch and NIC0 + two GPUs on
    /// the other; socket 1 carries two GPUs and NIC1 + one GPU.
    pub fn standard() -> Self {
        use Node::*;
        let x16 = 12.5; // PCIe3 x16 effective GB/s
        let upi = 20.0; // inter-socket
        let links = vec![
            Link {
                a: Cpu(0),
                b: Cpu(1),
                bw_gbps: upi,
            },
            Link {
                a: Cpu(0),
                b: Switch(0),
                bw_gbps: x16,
            },
            Link {
                a: Cpu(0),
                b: Switch(1),
                bw_gbps: x16,
            },
            Link {
                a: Cpu(1),
                b: Switch(2),
                bw_gbps: x16,
            },
            Link {
                a: Cpu(1),
                b: Switch(3),
                bw_gbps: x16,
            },
            Link {
                a: Switch(0),
                b: TrainingGpu,
                bw_gbps: x16,
            },
            Link {
                a: Switch(0),
                b: Fpga,
                bw_gbps: x16,
            },
            Link {
                a: Switch(1),
                b: Nic(0),
                bw_gbps: x16,
            },
            Link {
                a: Switch(1),
                b: Gpu(0),
                bw_gbps: x16,
            },
            Link {
                a: Switch(1),
                b: Gpu(1),
                bw_gbps: x16,
            },
            Link {
                a: Switch(2),
                b: Gpu(2),
                bw_gbps: x16,
            },
            Link {
                a: Switch(2),
                b: Gpu(3),
                bw_gbps: x16,
            },
            Link {
                a: Switch(3),
                b: Nic(1),
                bw_gbps: x16,
            },
            Link {
                a: Switch(3),
                b: Gpu(4),
                bw_gbps: x16,
            },
        ];
        let mut nodes = Vec::new();
        for l in &links {
            for n in [l.a, l.b] {
                if !nodes.contains(&n) {
                    nodes.push(n);
                }
            }
        }
        Fabric {
            links,
            nodes,
            overhead_bytes: 512.0,
            alpha_seconds: 2.0e-6,
        }
    }

    /// All nodes in the fabric.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    fn neighbors(&self, n: Node) -> Vec<(usize, Node)> {
        self.links
            .iter()
            .enumerate()
            .filter_map(|(i, l)| {
                if l.a == n {
                    Some((i, l.b))
                } else if l.b == n {
                    Some((i, l.a))
                } else {
                    None
                }
            })
            .collect()
    }

    /// The link indices on the (unique, tree) route between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node is not in the fabric or no route exists.
    pub fn route(&self, src: Node, dst: Node) -> Vec<usize> {
        assert!(self.nodes.contains(&src), "unknown node {src:?}");
        assert!(self.nodes.contains(&dst), "unknown node {dst:?}");
        if src == dst {
            return Vec::new();
        }
        let mut prev: Vec<Option<(Node, usize)>> = vec![None; self.nodes.len()];
        let at = |n: Node| self.nodes.iter().position(|&m| m == n).expect("known node");
        let mut seen = vec![false; self.nodes.len()];
        seen[at(src)] = true;
        let mut queue = VecDeque::from([src]);
        while let Some(n) = queue.pop_front() {
            for (li, m) in self.neighbors(n) {
                if !seen[at(m)] {
                    seen[at(m)] = true;
                    prev[at(m)] = Some((n, li));
                    queue.push_back(m);
                }
            }
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, li) = prev[at(cur)].expect("fabric is connected");
            path.push(li);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Max-min fair rates (GB/s) for a set of simultaneous flows
    /// (progressive water-filling: repeatedly saturate the bottleneck link
    /// and freeze its flows).
    pub fn max_min_rates(&self, flows: &[Flow]) -> Vec<f64> {
        let routes: Vec<Vec<usize>> = flows.iter().map(|f| self.route(f.src, f.dst)).collect();
        let mut rate = vec![0.0f64; flows.len()];
        let mut frozen = vec![false; flows.len()];
        let mut remaining: Vec<f64> = self.links.iter().map(|l| l.bw_gbps).collect();

        loop {
            // Count unfrozen flows per link.
            let mut count = vec![0usize; self.links.len()];
            for (fi, route) in routes.iter().enumerate() {
                if !frozen[fi] {
                    for &li in route {
                        count[li] += 1;
                    }
                }
            }
            // Bottleneck: link with the smallest per-flow share.
            let mut best: Option<(usize, f64)> = None;
            for (li, &c) in count.iter().enumerate() {
                if c > 0 {
                    let share = remaining[li] / c as f64;
                    if best.is_none_or(|(_, s)| share < s) {
                        best = Some((li, share));
                    }
                }
            }
            let Some((bottleneck, share)) = best else {
                break; // all flows frozen (or routeless)
            };
            // Freeze every unfrozen flow crossing the bottleneck.
            for (fi, route) in routes.iter().enumerate() {
                if !frozen[fi] && route.contains(&bottleneck) {
                    frozen[fi] = true;
                    rate[fi] = share;
                    for &li in route {
                        remaining[li] -= share;
                    }
                }
            }
        }
        // Local (same-node) flows or empty routes get the node-internal bw.
        for (fi, route) in routes.iter().enumerate() {
            if route.is_empty() {
                rate[fi] = f64::INFINITY;
            }
        }
        rate
    }

    /// Observed bandwidth (GB/s) of flow `idx` among `flows` when moving
    /// messages of `msg_bytes`: the fair-share rate degraded by protocol
    /// overhead and setup latency.
    pub fn observed_bandwidth(&self, flows: &[Flow], idx: usize, msg_bytes: f64) -> f64 {
        let rate = self.max_min_rates(flows)[idx];
        if !rate.is_finite() {
            return msg_bytes / self.alpha_seconds / 1.0e9;
        }
        let payload_frac = msg_bytes / (msg_bytes + self.overhead_bytes);
        let eff = rate * payload_frac; // GB/s
        let t = self.alpha_seconds + msg_bytes / (eff * 1.0e9);
        msg_bytes / t / 1.0e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Node::*;

    #[test]
    fn routes_follow_the_tree() {
        let f = Fabric::standard();
        // GPU1 (socket 0, switch 1) to GPU2 (socket 1, switch 2):
        // gpu1 -> sw1 -> cpu0 -> cpu1 -> sw2 -> gpu2 = 5 links.
        let r = f.route(Gpu(1), Gpu(2));
        assert_eq!(r.len(), 5);
        // Same-switch peer-to-peer: 2 links.
        assert_eq!(f.route(Gpu(0), Gpu(1)).len(), 2);
        assert!(f.route(Cpu(0), Cpu(0)).is_empty());
    }

    #[test]
    fn isolated_flow_gets_full_link_bandwidth() {
        let f = Fabric::standard();
        let flows = [Flow {
            src: Gpu(1),
            dst: Gpu(2),
        }];
        let rates = f.max_min_rates(&flows);
        assert!((rates[0] - 12.5).abs() < 1e-9);
    }

    #[test]
    fn contending_flows_split_the_bottleneck() {
        let f = Fabric::standard();
        // Both flows traverse switch1->cpu0.
        let flows = [
            Flow {
                src: Gpu(1),
                dst: Gpu(2),
            }, // halo exchange cross-socket
            Flow {
                src: Nic(0),
                dst: Cpu(1),
            }, // shuffle through NIC0
        ];
        let rates = f.max_min_rates(&flows);
        assert!((rates[0] - 6.25).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 6.25).abs() < 1e-9);
    }

    #[test]
    fn non_overlapping_flows_do_not_interfere() {
        let f = Fabric::standard();
        let flows = [
            Flow {
                src: Gpu(0),
                dst: Gpu(1),
            }, // local to switch 1
            Flow {
                src: Nic(1),
                dst: Cpu(1),
            }, // socket 1
        ];
        let rates = f.max_min_rates(&flows);
        assert!((rates[0] - 12.5).abs() < 1e-9);
        assert!((rates[1] - 12.5).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_curve_matches_fig9_shape() {
        let f = Fabric::standard();
        let halo = Flow {
            src: Gpu(1),
            dst: Gpu(2),
        };
        let shuffle = Flow {
            src: Nic(0),
            dst: Cpu(1),
        };
        let mut prev = 0.0;
        for p in 8..=22 {
            let size = (1u64 << p) as f64;
            let iso = f.observed_bandwidth(&[halo], 0, size);
            let con = f.observed_bandwidth(&[halo, shuffle], 0, size);
            assert!(iso >= con, "contention can only hurt");
            assert!(iso >= prev - 1e-9, "isolated bandwidth is monotone");
            prev = iso;
            let slowdown = iso / con - 1.0;
            assert!(
                (0.0..=1.9).contains(&slowdown),
                "slowdown {slowdown} out of the paper's 0-1.8x band at {size}"
            );
        }
        // Large messages: isolated nears line rate; contention ~halves it.
        let iso = f.observed_bandwidth(&[halo], 0, (1u64 << 22) as f64);
        let con = f.observed_bandwidth(&[halo, shuffle], 0, (1u64 << 22) as f64);
        assert!(iso > 10.0, "isolated {iso}");
        assert!(con < 0.62 * iso, "contention {con} vs isolated {iso}");
        // Small messages: latency-bound, no meaningful slowdown.
        let iso_s = f.observed_bandwidth(&[halo], 0, 256.0);
        let con_s = f.observed_bandwidth(&[halo, shuffle], 0, 256.0);
        assert!(iso_s / con_s < 1.1);
    }

    #[test]
    fn water_filling_conserves_capacity() {
        let f = Fabric::standard();
        // Three flows all crossing cpu0<->cpu1.
        let flows = [
            Flow {
                src: Gpu(0),
                dst: Gpu(3),
            },
            Flow {
                src: Gpu(1),
                dst: Gpu(4),
            },
            Flow {
                src: Nic(0),
                dst: Gpu(2),
            },
        ];
        let rates = f.max_min_rates(&flows);
        let total: f64 = rates.iter().sum();
        assert!(total <= 20.0 + 1e-9, "UPI capacity exceeded: {total}");
        // Max-min: all equal when symmetric over the bottleneck.
        assert!((rates[0] - rates[1]).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_rejected() {
        let f = Fabric::standard();
        f.route(Gpu(9), Cpu(0));
    }
}
