include Lazyctrl_util.Json
