// Public umbrella header: the networked cluster — wire routing and the
// consistent-hash router, the coordinator service, the smart client and
// the RESP proxy.
#ifndef TIERBASE_PUBLIC_CLUSTER_H_
#define TIERBASE_PUBLIC_CLUSTER_H_
#include "cluster_net/cluster_client.h"
#include "cluster_net/coordinator_service.h"
#include "cluster_net/proxy.h"
#include "cluster_net/router.h"
#include "cluster_net/routing.h"
#endif  // TIERBASE_PUBLIC_CLUSTER_H_
