#include "assembly.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "noc/deadlock.hpp"

namespace perfbench {

using namespace gnoc;

OutsideInSystem::OutsideInSystem(const GpuConfig& config,
                                 const WorkloadProfile& workload,
                                 Tracer& tracer, const std::string& cell,
                                 int parent)
    : config_(config),
      workload_(workload),
      plan_(config.width, config.height, config.num_mcs, config.placement) {
  if (config_.ideal_noc || config_.record_trace) {
    throw std::invalid_argument(
        "outside-in assembly supports neither ideal_noc nor record_trace");
  }
  {
    ScopedSpan span(tracer, "noc.construct", "noc", cell, parent);
    const Topology topo =
        Topology::Make(config_.topology, config_.width, config_.height,
                       config_.circulant_s1, config_.circulant_s2);
    ValidatePolicyOrThrow(topo, plan_, config_.routing, config_.vc_policy,
                          config_.allow_unsafe,
                          {config_.qos.classes[0].reserved_vcs,
                           config_.qos.classes[1].reserved_vcs});

    NetworkConfig net;
    net.width = config_.width;
    net.height = config_.height;
    net.topology = config_.topology;
    net.circulant_s1 = config_.circulant_s1;
    net.circulant_s2 = config_.circulant_s2;
    net.num_vcs = config_.num_vcs;
    net.vc_depth = config_.vc_depth;
    net.routing = config_.routing;
    net.vc_policy = config_.vc_policy;
    net.link_latency = config_.link_latency;
    net.inject_queue_capacity = config_.inject_queue_capacity;
    net.eject_capacity = config_.eject_capacity;
    net.atomic_vc_realloc = config_.atomic_vc_realloc;
    net.dynamic_epoch = config_.dynamic_epoch;
    net.arbiter = config_.arbiter;
    net.audit = config_.audit;
    net.audit_interval = config_.audit_interval;
    net.telemetry = config_.telemetry;
    net.telemetry_interval = config_.telemetry_interval;
    net.telemetry_max_windows = config_.telemetry_max_windows;
    net.scheduling = config_.scheduling;
    net.qos = config_.qos;
    if (config_.division == NetworkDivision::kPhysical) {
      fabric_ = std::make_unique<DualNetworkFabric>(net);
    } else {
      auto single = std::make_unique<SingleNetworkFabric>(net);
      Network& req_net = single->net(TrafficClass::kRequest);
      req_net.ConfigureLinkModes(
          AnalyzeLinkUsage(req_net.topology(), plan_, config_.routing));
      fabric_ = std::move(single);
    }
  }

  ScopedSpan span(tracer, "gpgpu.construct", "gpgpu", cell, parent);
  Rng master(config_.seed);
  SmConfig sm_cfg = config_.sm;
  sm_cfg.sizes.write_request = workload_.write_request_flits;
  for (NodeId node : plan_.core_nodes()) {
    auto sm = std::make_unique<StreamingMultiprocessor>(
        node, sm_cfg, workload_, fabric_.get(), config_.num_mcs,
        master.Fork());
    sm->SetMcNodes(plan_.mc_nodes());
    fabric_->SetSink(node, sm.get());
    sms_.push_back(std::move(sm));
  }
  for (NodeId node : plan_.mc_nodes()) {
    auto mc = std::make_unique<MemoryController>(node, config_.mc,
                                                 fabric_.get());
    fabric_->SetSink(node, mc.get());
    if (config_.mc_inject_flits_per_cycle > 1) {
      fabric_->net(TrafficClass::kReply)
          .nic(node)
          .SetInjectFlitsPerCycle(config_.mc_inject_flits_per_cycle);
    }
    mcs_.push_back(std::move(mc));
  }
}

void OutsideInSystem::Tick(TickSeconds& acc) {
  const Cycle cycle = fabric_->now();
  const double t0 = NowSeconds();
  for (auto& sm : sms_) sm->Tick(cycle);
  const double t1 = NowSeconds();
  for (auto& mc : mcs_) mc->Tick(cycle);
  const double t2 = NowSeconds();
  fabric_->Tick();
  const double t3 = NowSeconds();
  acc.sm += t1 - t0;
  acc.mc += t2 - t1;
  acc.noc += t3 - t2;
}

void OutsideInSystem::ResetStats() {
  fabric_->ResetStats();
  for (auto& sm : sms_) sm->ResetStats();
  for (auto& mc : mcs_) mc->ResetStats();
  measured_since_ = fabric_->now();
}

GpuRunStats OutsideInSystem::Measure() const {
  GpuRunStats out;
  out.cycles = fabric_->now() - measured_since_;
  for (const auto& sm : sms_) out.instructions += sm->stats().instructions;
  out.ipc = out.cycles == 0 ? 0.0
                            : static_cast<double>(out.instructions) /
                                  static_cast<double>(out.cycles);
  out.network = fabric_->Summarize();
  out.network.cycles = out.cycles;
  out.packets_by_type = fabric_->PacketsByType();
  out.request_flits = out.network.flits_injected[static_cast<std::size_t>(
      ClassIndex(TrafficClass::kRequest))];
  out.reply_flits = out.network.flits_injected[static_cast<std::size_t>(
      ClassIndex(TrafficClass::kReply))];

  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  double row_hit_sum = 0.0;
  for (const auto& mc : mcs_) {
    l2_hits += mc->stats().l2_read_hits;
    l2_misses += mc->stats().l2_read_misses;
    row_hit_sum += mc->dram_stats().row_hit_rate();
  }
  out.l2_miss_rate =
      (l2_hits + l2_misses) == 0
          ? 0.0
          : static_cast<double>(l2_misses) /
                static_cast<double>(l2_hits + l2_misses);
  out.dram_row_hit_rate = mcs_.empty() ? 0.0 : row_hit_sum / mcs_.size();

  RunningStats read_latency;
  for (const auto& sm : sms_) read_latency.Merge(sm->stats().read_latency);
  out.avg_read_latency = read_latency.mean();
  out.deadlocked = fabric_->Deadlocked();
  const RunReport report = fabric_->CollectRunReport();
  out.audit = report.audit;
  out.telemetry = report.telemetry;
  out.qos = report.qos;
  return out;
}

void OutsideInSystem::Save(Serializer& s) const {
  fabric_->Save(s);
  for (const auto& sm : sms_) sm->Save(s);
  for (const auto& mc : mcs_) mc->Save(s);
  s.U64(measured_since_);
}

void OutsideInSystem::Load(Deserializer& d) {
  fabric_->Load(d);
  for (auto& sm : sms_) sm->Load(d);
  for (auto& mc : mcs_) mc->Load(d);
  measured_since_ = d.U64();
}

WindowedTicker::WindowedTicker(OutsideInSystem& sys, Tracer& tracer,
                               std::string cell, int parent, Cycle window)
    : sys_(sys),
      tracer_(tracer),
      cell_(std::move(cell)),
      parent_(parent),
      window_(window) {}

void WindowedTicker::Tick() {
  if (in_window_ == 0) window_start_ = NowSeconds();
  sys_.Tick(window_acc_);
  if (++in_window_ == window_) Flush();
}

void WindowedTicker::Flush() {
  if (in_window_ == 0) return;
  const double end = NowSeconds();
  const int w =
      tracer_.Add("sim.window", "sim", cell_, parent_, window_start_, end);
  double t = window_start_;
  const auto child = [&](const char* name, const char* layer, double dur) {
    tracer_.Add(name, layer, cell_, w, t, t + dur);
    t += dur;
  };
  child("gpgpu.sm", "gpgpu", window_acc_.sm);
  child("gpgpu.mc", "gpgpu", window_acc_.mc);
  child("noc.tick", "noc", window_acc_.noc);
  total_.sm += window_acc_.sm;
  total_.mc += window_acc_.mc;
  total_.noc += window_acc_.noc;
  window_acc_ = TickSeconds{};
  in_window_ = 0;
}

}  // namespace perfbench
