#include "apps/bt.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "apps/result.h"
#include "os/san.h"

namespace zapc::apps {
namespace {

constexpr u32 kTagHaloUp = 201;
constexpr u32 kTagHaloDown = 202;
constexpr u32 kHaloWidth = 2;  // rows exchanged per direction ("wide")

/// Solves the tridiagonal system (-a, 1+2a, -a) x = rhs in place
/// (Thomas algorithm); x has stride `stride`.
void thomas(double* x, u32 len, double a, double* scratch, u32 stride) {
  if (len == 0) return;
  const double b = 1.0 + 2.0 * a;
  // Forward elimination.
  scratch[0] = -a / b;
  x[0] = x[0] / b;
  for (u32 i = 1; i < len; ++i) {
    double m = 1.0 / (b + a * scratch[i - 1]);
    scratch[i] = -a * m;
    x[i * stride] = (x[i * stride] + a * x[(i - 1) * stride]) * m;
  }
  // Back substitution.
  for (u32 i = len - 1; i-- > 0;) {
    x[i * stride] -= scratch[i] * x[(i + 1) * stride];
  }
}

}  // namespace

double* BtProgram::grid(os::Syscalls& sys) {
  // Local rows plus kHaloWidth halo rows on each side.
  std::size_t bytes = static_cast<std::size_t>(local_rows() + 2 * kHaloWidth) *
                      p_.n * sizeof(double);
  return reinterpret_cast<double*>(sys.region("grid", bytes).data());
}

os::StepResult BtProgram::step(os::Syscalls& sys) {
  using os::StepResult;
  const u32 n = p_.n;
  const i32 up = p_.rank - 1;
  const i32 down = p_.rank + 1;
  const bool has_up = up >= 0;
  const bool has_down = down < p_.size;
  double* g = grid(sys);
  double* interior = g + static_cast<std::size_t>(kHaloWidth) * n;

  switch (pc_) {
    case INIT: {
      if (p_.workspace_bytes > 0) sys.region("workspace", p_.workspace_bytes);
      if (!comm_.try_init(sys)) return wait_comm(comm_);
      if (!initialized_grid_) {
        // u₀ = sin(πx)·sin(πy): smooth mode that decays under diffusion.
        for (u32 r = 0; r < local_rows(); ++r) {
          double y = static_cast<double>(rows_begin() + r + 1) / (n + 1);
          for (u32 c = 0; c < n; ++c) {
            double x = static_cast<double>(c + 1) / (n + 1);
            interior[static_cast<std::size_t>(r) * n + c] =
                std::sin(M_PI * x) * std::sin(M_PI * y);
          }
        }
        initialized_grid_ = true;
      }
      pc_ = X_SWEEP;
      return StepResult::yield();
    }
    case X_SWEEP: {
      // Implicit solve along x for every local row.
      std::vector<double> scratch(n);
      for (u32 r = 0; r < local_rows(); ++r) {
        thomas(interior + static_cast<std::size_t>(r) * n, n, p_.alpha_dt,
               scratch.data(), 1);
      }
      pc_ = SEND_HALO;
      return StepResult::yield(
          std::max<sim::Time>(local_rows() * p_.cost_per_row, 1));
    }
    case SEND_HALO: {
      auto pack_rows = [&](u32 first_local_row) {
        Bytes b(static_cast<std::size_t>(kHaloWidth) * n * sizeof(double));
        std::memcpy(b.data(),
                    interior + static_cast<std::size_t>(first_local_row) * n,
                    b.size());
        return b;
      };
      if (has_up) comm_.post_send(sys, up, kTagHaloUp, pack_rows(0));
      if (has_down) {
        comm_.post_send(sys, down, kTagHaloDown,
                        pack_rows(local_rows() - kHaloWidth));
      }
      got_up_ = !has_up;
      got_down_ = !has_down;
      pc_ = RECV_HALO;
      return StepResult::yield();
    }
    case RECV_HALO: {
      if (!got_up_) {
        auto m = comm_.try_recv(sys, up, kTagHaloDown);
        if (m) {
          std::memcpy(g, m->data(),
                      std::min<std::size_t>(
                          m->size(),
                          static_cast<std::size_t>(kHaloWidth) * n *
                              sizeof(double)));
          got_up_ = true;
        }
      }
      if (!got_down_) {
        auto m = comm_.try_recv(sys, down, kTagHaloUp);
        if (m) {
          std::memcpy(interior + static_cast<std::size_t>(local_rows()) * n,
                      m->data(),
                      std::min<std::size_t>(
                          m->size(),
                          static_cast<std::size_t>(kHaloWidth) * n *
                              sizeof(double)));
          got_down_ = true;
        }
      }
      if (!got_up_ || !got_down_) {
        if (comm_.failed()) return StepResult::exit(2);
        return wait_comm(comm_);
      }
      pc_ = Y_SWEEP;
      return StepResult::yield();
    }
    case Y_SWEEP: {
      // Block-local implicit solve along y using halo rows as boundary
      // coupling (block-Jacobi ADI).
      u32 len = local_rows();
      std::vector<double> scratch(len);
      for (u32 c = 0; c < n; ++c) {
        double* col = interior + c;
        // Fold halo boundary values into the first/last RHS entries.
        if (has_up) {
          col[0] += p_.alpha_dt * g[(kHaloWidth - 1) * n + c];
        }
        if (has_down) {
          col[static_cast<std::size_t>(len - 1) * n] +=
              p_.alpha_dt *
              interior[static_cast<std::size_t>(len) * n + c];
        }
        thomas(col, len, p_.alpha_dt, scratch.data(), n);
      }
      pc_ = NORM;
      return StepResult::yield(
          std::max<sim::Time>(local_rows() * p_.cost_per_row, 1));
    }
    case NORM: {
      double sum2 = 0, sum_abs = 0, maxv = 0;
      for (u32 r = 0; r < local_rows(); ++r) {
        for (u32 c = 0; c < n; ++c) {
          double v = interior[static_cast<std::size_t>(r) * n + c];
          sum2 += v * v;
          sum_abs += std::abs(v);
          maxv = std::max(maxv, std::abs(v));
        }
      }
      if (!comm_.try_allreduce_sum(sys, {sum2, sum_abs, maxv}, &reduced_)) {
        if (comm_.failed()) return StepResult::exit(2);
        return wait_comm(comm_);
      }
      norm_ = std::sqrt(reduced_[0]) / (static_cast<double>(n));
      if (step_ == 0) initial_norm_ = norm_;
      ++step_;
      pc_ = step_ >= p_.steps ? static_cast<u32>(FINISH)
                              : static_cast<u32>(X_SWEEP);
      return StepResult::yield();
    }
    case FINISH: {
      if (p_.rank == 0) {
        Encoder e;
        e.put_f64(norm_);
        e.put_f64(initial_norm_);
        e.put_u32(step_);
        if (!sys.san().write("results/bt", e.take())) {
          return StepResult::exit(kExitResultWriteFailed);
        }
      }
      // Diffusion must have decayed the mode monotonically toward 0.
      bool ok = std::isfinite(norm_) && norm_ < initial_norm_ && norm_ > 0;
      return StepResult::exit(ok ? 0 : 3);
    }
    default:
      return StepResult::exit(9);
  }
}

void BtProgram::save(Encoder& e) const {
  e.put_i32(p_.rank);
  e.put_i32(p_.size);
  e.put_u32(p_.n);
  e.put_u32(p_.steps);
  e.put_f64(p_.alpha_dt);
  e.put_u64(p_.cost_per_row);
  e.put_u64(p_.workspace_bytes);
  comm_.save(e);
  e.put_u32(pc_);
  e.put_u32(step_);
  e.put_bool(initialized_grid_);
  e.put_bool(got_up_);
  e.put_bool(got_down_);
  e.put_f64(norm_);
  e.put_f64(initial_norm_);
}

void BtProgram::load(Decoder& d) {
  p_.rank = d.i32_().value_or(0);
  p_.size = d.i32_().value_or(1);
  p_.n = d.u32_().value_or(16);
  p_.steps = d.u32_().value_or(1);
  p_.alpha_dt = d.f64_().value_or(0.1);
  p_.cost_per_row = d.u64_().value_or(1);
  p_.workspace_bytes = d.u64_().value_or(0);
  comm_.load(d);
  pc_ = d.u32_().value_or(0);
  step_ = d.u32_().value_or(0);
  initialized_grid_ = d.bool_().value_or(false);
  got_up_ = d.bool_().value_or(false);
  got_down_ = d.bool_().value_or(false);
  norm_ = d.f64_().value_or(0);
  initial_norm_ = d.f64_().value_or(0);
}

}  // namespace zapc::apps

ZAPC_REGISTER_PROGRAM(app_bt, zapc::apps::BtProgram)
