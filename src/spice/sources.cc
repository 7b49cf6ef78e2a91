#include "spice/sources.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fefet::spice {

namespace shapes {

Shape dc(double value) {
  return [value](double) { return value; };
}

Shape pulse(double v0, double v1, double delay, double rise, double width,
            double fall, double period) {
  FEFET_REQUIRE(rise > 0.0 && fall > 0.0,
                "pulse: rise/fall must be positive (use small values for "
                "near-ideal edges)");
  return [=](double t) {
    double tl = t - delay;
    if (period > 0.0 && tl >= 0.0) tl = std::fmod(tl, period);
    if (tl < 0.0) return v0;
    if (tl < rise) return v0 + (v1 - v0) * tl / rise;
    if (tl < rise + width) return v1;
    if (tl < rise + width + fall) {
      return v1 + (v0 - v1) * (tl - rise - width) / fall;
    }
    return v0;
  };
}

Shape pwl(std::vector<std::pair<double, double>> points) {
  FEFET_REQUIRE(!points.empty(), "pwl: needs at least one point");
  for (std::size_t i = 1; i < points.size(); ++i) {
    FEFET_REQUIRE(points[i].first >= points[i - 1].first,
                  "pwl: points must be sorted by time");
  }
  return [pts = std::move(points)](double t) {
    if (t <= pts.front().first) return pts.front().second;
    if (t >= pts.back().first) return pts.back().second;
    const auto it = std::upper_bound(
        pts.begin(), pts.end(), t,
        [](double value, const auto& p) { return value < p.first; });
    const auto& hi = *it;
    const auto& lo = *(it - 1);
    if (hi.first == lo.first) return hi.second;
    const double f = (t - lo.first) / (hi.first - lo.first);
    return lo.second + f * (hi.second - lo.second);
  };
}

Shape sine(double offset, double amplitude, double frequency, double delay) {
  return [=](double t) {
    return offset + amplitude * std::sin(2.0 * M_PI * frequency * (t - delay));
  };
}

}  // namespace shapes

VoltageSource::VoltageSource(std::string name, NodeId plus, NodeId minus,
                             Shape shape)
    : Device(std::move(name)), plus_(plus), minus_(minus),
      shape_(std::move(shape)) {
  FEFET_REQUIRE(static_cast<bool>(shape_), "voltage source needs a shape");
}

void VoltageSource::setup(SetupContext& ctx) {
  auxRow_ = ctx.allocateAux("i(" + name() + ")");
}

void VoltageSource::stamp(const EvalContext& ctx) {
  const int rp = Stamper::rowOfNode(plus_);
  const int rm = Stamper::rowOfNode(minus_);
  const double i = ctx.view.aux(auxRow_);
  const double vp = ctx.view.nodeVoltage(plus_);
  const double vm = ctx.view.nodeVoltage(minus_);
  // KCL: branch current leaves the + node into the source.
  ctx.addResidual(rp, i);
  ctx.addResidual(rm, -i);
  ctx.addJacobian(rp, auxRow_, 1.0);
  ctx.addJacobian(rm, auxRow_, -1.0);
  // Branch equation: v+ - v- = shape(t).
  ctx.addResidual(auxRow_, vp - vm - shape_(ctx.time));
  ctx.addJacobian(auxRow_, rp, 1.0);
  ctx.addJacobian(auxRow_, rm, -1.0);
}

double VoltageSource::current(const SystemView& view) const {
  // Positive = delivered into the external circuit from the + terminal
  // (the aux unknown is the current absorbed into the source).
  return -view.aux(auxRow_);
}

void VoltageSource::commitStep(const SystemView& view, double time,
                               double dt, IntegrationMethod /*method*/) {
  energy_ += shape_(time) * current(view) * dt;
}

double VoltageSource::state(int k, const SystemView& view) const {
  return k == 0 ? current(view) : energy_;
}

CurrentSource::CurrentSource(std::string name, NodeId from, NodeId to,
                             Shape shape)
    : Device(std::move(name)), from_(from), to_(to), shape_(std::move(shape)) {
  FEFET_REQUIRE(static_cast<bool>(shape_), "current source needs a shape");
}

void CurrentSource::stamp(const EvalContext& ctx) {
  const double i = shape_(ctx.time);
  ctx.addResidual(Stamper::rowOfNode(from_), i);
  ctx.addResidual(Stamper::rowOfNode(to_), -i);
}

}  // namespace fefet::spice
