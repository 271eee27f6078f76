#include "tcp/cc/bbr.hpp"
#include "tcp/cc/compound.hpp"
#include "tcp/cc/congestion_controller.hpp"
#include "tcp/cc/cubic.hpp"
#include "tcp/cc/dctcp.hpp"
#include "tcp/cc/newreno.hpp"

namespace nk::tcp {

std::optional<cc_algorithm> parse_cc_algorithm(std::string_view name) {
  if (name == "newreno" || name == "reno") return cc_algorithm::newreno;
  if (name == "cubic") return cc_algorithm::cubic;
  if (name == "bbr") return cc_algorithm::bbr;
  if (name == "compound" || name == "ctcp") return cc_algorithm::compound;
  if (name == "dctcp") return cc_algorithm::dctcp;
  return std::nullopt;
}

std::unique_ptr<congestion_controller> make_congestion_controller(
    cc_algorithm algorithm, std::uint32_t mss) {
  switch (algorithm) {
    case cc_algorithm::newreno: return std::make_unique<newreno>(mss);
    case cc_algorithm::cubic: return std::make_unique<cubic>(mss);
    case cc_algorithm::bbr: return std::make_unique<bbr>(mss);
    case cc_algorithm::compound: return std::make_unique<compound>(mss);
    case cc_algorithm::dctcp: return std::make_unique<dctcp>(mss);
  }
  return std::make_unique<newreno>(mss);
}

}  // namespace nk::tcp
