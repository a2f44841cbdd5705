/**
 * @file
 * The ABC-DIMM-style intra-channel broadcast fabric (Table I, column
 * 3). The host issues customized broadcast-read/-write commands on the
 * multi-drop bus of one channel, reaching every DIMM in that channel
 * with a single occupancy; traffic crossing channels and all P2P
 * transactions fall back to CPU forwarding.
 */

#ifndef DIMMLINK_IDC_ABC_FABRIC_HH
#define DIMMLINK_IDC_ABC_FABRIC_HH

#include <vector>

#include "idc/fabric.hh"

namespace dimmlink {
namespace idc {

class AbcFabric : public Fabric
{
  public:
    AbcFabric(EventQueue &eq, const SystemConfig &cfg,
              std::vector<host::Channel *> channels,
              stats::Registry &reg);

    void submit(Transaction t) override;
    void enterNmpMode() override { path.start(); }
    void exitNmpMode() override { path.stop(); }

  private:
    void execute(Transaction t, Tick started);
    void executeBroadcast(Transaction t,
                          EventCallback finish);

    std::vector<host::Channel *> channels;
    CpuForwardPath path;

    stats::Scalar &statChannelBroadcasts;
};

} // namespace idc
} // namespace dimmlink

#endif // DIMMLINK_IDC_ABC_FABRIC_HH
